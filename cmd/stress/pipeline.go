package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"socialtrust/internal/audit"
	"socialtrust/internal/cluster"
	"socialtrust/internal/core"
	"socialtrust/internal/interest"
	"socialtrust/internal/manager"
	"socialtrust/internal/obs/span"
	"socialtrust/internal/rating"
	"socialtrust/internal/reputation/eigentrust"
	"socialtrust/internal/socialgraph"
	"socialtrust/internal/xrand"
)

// The -nodes pipeline sweep: the BenchmarkPipeline deployment shape,
// reproducible without go test. One interval is a batched overlay ingest of a
// whole trace followed by the drain/adjust/iterate pass; ingest and
// adjust+iterate are timed separately so the two halves of the scale story
// (SubmitBatch throughput, parallel Adjust/EigenTrust wall time) each get a
// column.
const (
	sweepShards    = 16 // manager goroutines fronting the engine
	sweepDegree    = 6  // random social edges grown per node
	sweepRPN       = 4  // ratings per node per interval
	sweepCats      = 16 // interest category universe
	sweepPretrust  = 20
	sweepBatchSize = 8192 // ratings per SubmitBatch call
)

// buildSweepPipeline wires the full stack at size n: a social graph with
// sweepDegree random edges per node, interest profiles over a small category
// universe, a SocialTrust-wrapped EigenTrust engine, and a manager overlay
// sharded sweepShards ways. Closeness paths are capped at 3 hops — the
// paper's observed transaction radius — which keeps the Ωc BFS bounded at
// 50k nodes.
func buildSweepPipeline(n int, seed uint64, stateDir string, pc *cluster.ProcCluster) (*manager.Overlay, *xrand.Stream, error) {
	rng := xrand.New(seed + uint64(n))
	g := socialgraph.New(n)
	for i := 0; i < n; i++ {
		for d := 0; d < sweepDegree; d++ {
			j := rng.Intn(n)
			if j != i {
				g.AddRelationship(socialgraph.NodeID(i), socialgraph.NodeID(j),
					socialgraph.Relationship{Kind: socialgraph.Friendship})
			}
		}
	}
	sets := make([]interest.Set, n)
	for i := range sets {
		cats := make([]interest.Category, 4)
		for c := range cats {
			cats[c] = interest.Category(rng.Intn(sweepCats))
		}
		sets[i] = interest.NewSet(cats...)
	}
	pretrusted := make([]int, sweepPretrust)
	for i := range pretrusted {
		pretrusted[i] = i
	}
	inner := eigentrust.New(eigentrust.Config{NumNodes: n, Pretrusted: pretrusted})
	fc := core.Config{NumNodes: n}
	fc.Closeness.MaxPathHops = 3
	filter := core.New(fc, g, sets, interest.NewTracker(n), inner)
	// Cluster workers journal to their own WAL directories.
	opts := manager.Options{StateDir: stateDir}
	if pc != nil {
		opts = manager.Options{Transport: pc.Client()}
	}
	o, err := manager.NewWithOptions(n, sweepShards, filter, opts)
	return o, rng, err
}

// sweepTrace draws one interval's worth of ratings: sweepRPN per active
// rater, random ratees, 20% negative, sequence-numbered from *seq (the WAL
// replay dedupe key of durable overlays). sparse < 1 confines the raters to
// the first n·sparse nodes — the sparse-activity regime the incremental
// engine is built for, where interval cost should track the active set,
// not n.
func sweepTrace(n int, rng *xrand.Stream, sparse float64, seq *uint64) []rating.Rating {
	raters := n
	if sparse > 0 && sparse < 1 {
		raters = int(float64(n) * sparse)
		if raters < 1 {
			raters = 1
		}
	}
	trace := make([]rating.Rating, 0, raters*sweepRPN)
	for i := 0; i < raters*sweepRPN; i++ {
		rater := rng.Intn(raters)
		ratee := rng.Intn(n)
		if ratee == rater {
			ratee = (ratee + 1) % n
		}
		v := 1.0
		if rng.Float64() < 0.2 {
			v = -1
		}
		*seq++
		trace = append(trace, rating.Rating{
			Rater: rater, Ratee: ratee, Value: v,
			Cycle: i / n, Category: rng.Intn(sweepCats), Seq: *seq,
		})
	}
	return trace
}

// sweepIngest pushes one interval's trace through SubmitBatch in
// sweepBatchSize slices and returns the first rating error.
func sweepIngest(o *manager.Overlay, trace []rating.Rating) error {
	for lo := 0; lo < len(trace); lo += sweepBatchSize {
		for _, err := range o.SubmitBatch(trace[lo:min(lo+sweepBatchSize, len(trace))]) {
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// runPipelineSweep measures the raw interval pipeline at each size: batched
// ingest throughput (ratings/sec through SubmitBatch) and the adjust+iterate
// wall time of the EndInterval drain, per interval. With traced set, each
// interval runs under a root span (mirroring the simulator's interval
// instrumentation) and its phase attribution is printed beneath the row;
// traceDir additionally exports the span stream for socialtrust-trace.
func runPipelineSweep(sizes []int, intervals int, seed uint64, traceDir string, traced bool, sparse float64, stateDir string,
	clusterN, workerHealthBase int) {
	if traced {
		span.Enable(0)
		defer span.Disable()
	}
	fmt.Printf("%-8s %-9s %-12s %-14s %-16s\n",
		"nodes", "interval", "ingest", "ratings/s", "adjust+iterate")
	for _, n := range sizes {
		dir := ""
		if stateDir != "" {
			dir = filepath.Join(stateDir, fmt.Sprintf("n%d", n))
		}
		var pc *cluster.ProcCluster
		if clusterN > 0 {
			wdir, err := os.MkdirTemp("", "stsweep")
			if err != nil {
				fmt.Printf("stress: n=%d: %v\n", n, err)
				return
			}
			pc, err = cluster.Spawn(cluster.SpawnOptions{
				Workers:    clusterN,
				Shards:     sweepShards,
				StateDir:   wdir,
				HealthBase: workerHealthBase,
			})
			if err != nil {
				_ = os.RemoveAll(wdir)
				fmt.Printf("stress: n=%d: %v\n", n, err)
				return
			}
			defer os.RemoveAll(wdir)
		}
		o, rng, err := buildSweepPipeline(n, seed, dir, pc)
		if err != nil {
			if pc != nil {
				_ = pc.Close()
			}
			fmt.Printf("stress: n=%d: %v\n", n, err)
			return
		}
		var seq uint64
		for iv := 0; iv < intervals; iv++ {
			trace := sweepTrace(n, rng, sparse, &seq)
			root := span.Root("sweep.interval")
			root.SetInt("interval", int64(iv+1)).SetInt("nodes", int64(n))
			prev := span.SetAmbient(root.Context())
			isp := span.Ambient("sweep.ingest", span.PhaseIngest).SetInt("ratings", int64(len(trace)))
			prevIngest := span.SetAmbient(isp.Context())
			start := time.Now()
			if err := sweepIngest(o, trace); err != nil {
				fmt.Printf("stress: n=%d: %v\n", n, err)
				if pc != nil {
					_ = pc.Close()
				}
				return
			}
			ingest := time.Since(start)
			span.SetAmbient(prevIngest)
			isp.End()
			start = time.Now()
			o.EndInterval()
			drain := time.Since(start)
			span.SetAmbient(prev)
			root.End()
			fmt.Printf("%-8d %-9d %-12v %-14.0f %-16v\n",
				n, iv+1, ingest.Round(time.Microsecond),
				float64(len(trace))/ingest.Seconds(), drain.Round(time.Millisecond))
			if att, ok := span.Current().TakeAttribution(root.TraceID()); ok {
				fmt.Printf("         phases: ingest=%.4fs drain=%.4fs adjust=%.4fs iterate=%.4fs other=%.4fs coverage=%.1f%%\n",
					att.Ingest, att.Drain, att.Adjust, att.Iterate, att.Other(), 100*att.Coverage())
			}
		}
		o.Close()
		if pc != nil {
			if err := pc.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "stress: cluster teardown: %v\n", err)
			}
		}
	}
	if traced && traceDir != "" {
		rec := span.Current()
		spans := rec.Drain()
		if d := rec.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "stress: span ring overflowed; %d spans dropped from the export\n", d)
		}
		if err := audit.WriteTrace(traceDir, spans); err != nil {
			fmt.Fprintf(os.Stderr, "stress: %v\n", err)
			return
		}
		fmt.Printf("interval trace in %s (inspect with socialtrust-trace)\n", traceDir)
	}
}
