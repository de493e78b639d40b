package socialtrust

import (
	"testing"

	"socialtrust/internal/cluster"
	"socialtrust/internal/core"
	"socialtrust/internal/interest"
	"socialtrust/internal/manager"
	"socialtrust/internal/rating"
	"socialtrust/internal/reputation/eigentrust"
	"socialtrust/internal/socialgraph"
	"socialtrust/internal/xrand"
)

// End-to-end pipeline benchmarks at large N: one op is one full reputation-
// update interval — batched overlay ingest of a whole trace interval,
// interval drain, SocialTrust adjust, and the EigenTrust power iteration.
// The 2k size doubles as the CI scale smoke (1 iteration, -race), and the
// 10k size prices the CI health job's sampler-overhead gate.
const (
	pipelineShards    = 16 // manager goroutines fronting the engine
	pipelineDegree    = 6  // random social edges grown per node
	pipelineRPN       = 4  // ratings per node per interval
	pipelineCats      = 16 // interest category universe
	pipelinePretrust  = 20
	pipelineBatchSize = 8192 // ratings per SubmitBatch call
)

// pipelineBench is one constructed large-N deployment plus its pre-drawn
// interval trace.
type pipelineBench struct {
	overlay *manager.Overlay
	trace   []rating.Rating
}

// buildPipeline wires the full stack the way a deployment would: a social
// graph with pipelineDegree random edges per node, interest profiles over a
// small category universe, a SocialTrust-wrapped EigenTrust engine, and a
// manager overlay sharded pipelineShards ways. Closeness paths are capped at
// 3 hops — the paper's observed transaction radius — which keeps the Ωc BFS
// bounded at 50k nodes. A non-empty stateDir makes the overlay durable:
// every shard journals its ingest to a WAL there before acknowledging.
func buildPipeline(tb testing.TB, n int, stateDir string) *pipelineBench {
	return buildPipelineSparse(tb, n, n, stateDir)
}

// buildPipelineSparse is buildPipeline with the interval's rating activity
// confined to the first activeRaters nodes (ratees still span the whole
// population) — the sparse-activity regime where the incremental engine's
// per-interval cost should track the active set, not n.
func buildPipelineSparse(tb testing.TB, n, activeRaters int, stateDir string) *pipelineBench {
	tb.Helper()
	rng := xrand.New(uint64(n))
	g := socialgraph.New(n)
	for i := 0; i < n; i++ {
		for d := 0; d < pipelineDegree; d++ {
			j := rng.Intn(n)
			if j != i {
				g.AddRelationship(socialgraph.NodeID(i), socialgraph.NodeID(j),
					socialgraph.Relationship{Kind: socialgraph.Friendship})
			}
		}
	}
	sets := make([]interest.Set, n)
	for i := range sets {
		cats := make([]interest.Category, 0, 4)
		for len(cats) < 4 {
			c := interest.Category(rng.Intn(pipelineCats))
			dup := false
			for _, have := range cats {
				if have == c {
					dup = true
					break
				}
			}
			if !dup {
				cats = append(cats, c)
			}
		}
		sets[i] = interest.NewSet(cats...)
	}
	tracker := interest.NewTracker(n)
	pretrusted := make([]int, pipelinePretrust)
	for i := range pretrusted {
		pretrusted[i] = i
	}
	inner := eigentrust.New(eigentrust.Config{NumNodes: n, Pretrusted: pretrusted})
	fc := core.Config{NumNodes: n}
	fc.Closeness.MaxPathHops = 3
	filter := core.New(fc, g, sets, tracker, inner)
	o, err := manager.NewWithOptions(n, pipelineShards, filter, manager.Options{StateDir: stateDir})
	if err != nil {
		tb.Fatal(err)
	}
	trace := make([]rating.Rating, 0, activeRaters*pipelineRPN)
	for i := 0; i < activeRaters*pipelineRPN; i++ {
		rater := rng.Intn(activeRaters)
		ratee := rng.Intn(n)
		if ratee == rater {
			ratee = (ratee + 1) % n
		}
		v := 1.0
		if rng.Float64() < 0.2 {
			v = -1
		}
		trace = append(trace, rating.Rating{
			Rater: rater, Ratee: ratee, Value: v,
			Cycle: i / n, Category: rng.Intn(pipelineCats),
			Seq: uint64(i + 1), // WAL replay dedupe key (durable overlays)
		})
	}
	return &pipelineBench{overlay: o, trace: trace}
}

// runInterval executes one full update interval: batched ingest of the whole
// trace followed by the drain/adjust/iterate pass.
func (p *pipelineBench) runInterval(tb testing.TB) {
	tb.Helper()
	for lo := 0; lo < len(p.trace); lo += pipelineBatchSize {
		hi := lo + pipelineBatchSize
		if hi > len(p.trace) {
			hi = len(p.trace)
		}
		if errs := p.overlay.SubmitBatch(p.trace[lo:hi]); errs != nil {
			for _, err := range errs {
				if err != nil {
					tb.Fatal(err)
				}
			}
		}
	}
	p.overlay.EndInterval()
}

func benchmarkPipeline(b *testing.B, n int) {
	benchmarkPipelineDir(b, n, "")
}

// benchmarkPipelineDir is benchmarkPipeline over an optionally durable
// overlay: with a state directory, every SubmitBatch is journaled to the
// per-shard WALs before acknowledging — the ingest-overhead cost of
// durability, priced by comparing Pipeline2kWAL against Pipeline2k.
func benchmarkPipelineDir(b *testing.B, n int, stateDir string) {
	p := buildPipeline(b, n, stateDir)
	defer p.overlay.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.runInterval(b)
	}
	b.StopTimer()
	secs := b.Elapsed().Seconds()
	if secs > 0 {
		b.ReportMetric(float64(len(p.trace))*float64(b.N)/secs, "ratings/s")
	}
	b.ReportMetric(secs/float64(b.N), "s/interval")
	if mb := cluster.SelfPeakRSSMB(); mb > 0 {
		b.ReportMetric(mb, "MB-peakRSS")
	}
}

func BenchmarkPipeline2k(b *testing.B)    { benchmarkPipeline(b, 2_000) }
func BenchmarkPipeline2kWAL(b *testing.B) { benchmarkPipelineDir(b, 2_000, b.TempDir()) }
func BenchmarkPipeline10k(b *testing.B)   { benchmarkPipeline(b, 10_000) }
func BenchmarkPipeline50k(b *testing.B)   { benchmarkPipeline(b, 50_000) }
func BenchmarkPipeline100k(b *testing.B)  { benchmarkPipeline(b, 100_000) }

// benchmarkPipelineSparse measures the incremental engine's sparse-activity
// regime: only activeFrac of the population rates each interval. Two
// untimed warm-up intervals populate the signal caches and the EigenTrust
// CSR; the timed intervals then exercise the steady state where per-interval
// cost should track the active set (dirty pairs, dirty rows), not n.
func benchmarkPipelineSparse(b *testing.B, n int, activeFrac float64) {
	active := int(float64(n) * activeFrac)
	if active < 1 {
		active = 1
	}
	p := buildPipelineSparse(b, n, active, "")
	defer p.overlay.Close()
	p.runInterval(b) // cold: BFS + CSR build for the active set
	p.runInterval(b) // warm verification pass
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.runInterval(b)
	}
	b.StopTimer()
	secs := b.Elapsed().Seconds()
	if secs > 0 {
		b.ReportMetric(float64(len(p.trace))*float64(b.N)/secs, "ratings/s")
	}
	b.ReportMetric(secs/float64(b.N), "s/interval")
	if mb := cluster.SelfPeakRSSMB(); mb > 0 {
		b.ReportMetric(mb, "MB-peakRSS")
	}
}

// BenchmarkPipelineSparse50k is the headline sparse-activity benchmark: 1%
// of a 50k-node population active per interval. Compare its s/interval
// against BenchmarkPipeline50k to see the incremental engine's cost
// tracking activity instead of population.
func BenchmarkPipelineSparse50k(b *testing.B) { benchmarkPipelineSparse(b, 50_000, 0.01) }
