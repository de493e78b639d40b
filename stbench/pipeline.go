package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"socialtrust/internal/cluster"
	"socialtrust/internal/core"
	"socialtrust/internal/interest"
	"socialtrust/internal/manager"
	"socialtrust/internal/obs/span"
	"socialtrust/internal/rating"
	"socialtrust/internal/reputation"
	"socialtrust/internal/reputation/eigentrust"
	"socialtrust/internal/socialgraph"
)

// timedEngine wraps a reputation engine and times its Update calls from
// outside. The overlay holds one around the SocialTrust filter and the
// filter holds one around EigenTrust, so each layer's busy time is measured
// without any span or counter inside the program. In a traced run each
// Update also records a span and installs it as the ambient parent, so the
// program's own spans nest under it.
type timedEngine struct {
	reputation.Engine
	name    string        // span name
	busy    time.Duration // Update wall time since the last take
	ratings int           // ratings received since the last take
}

func (t *timedEngine) Update(snap rating.Snapshot) {
	sp := span.Ambient(t.name, "")
	prev := span.SetAmbient(sp.Context())
	start := time.Now()
	t.Engine.Update(snap)
	t.busy += time.Since(start)
	span.SetAmbient(prev)
	sp.End()
	t.ratings += len(snap.Ratings)
}

// take returns and clears the busy time and rating count.
func (t *timedEngine) take() (time.Duration, int) {
	d, n := t.busy, t.ratings
	t.busy, t.ratings = 0, 0
	return d, n
}

// pipeline is one constructed deployment: social graph, interest sets,
// EigenTrust wrapped by the SocialTrust filter, and the manager overlay,
// optionally with its shards in worker processes.
type pipeline struct {
	w        workload
	graph    *socialgraph.Graph
	sets     []interest.Set
	et       *eigentrust.Engine
	filter   *core.SocialTrust
	etTimer  *timedEngine
	stTimer  *timedEngine
	overlay  *manager.Overlay
	procs    *cluster.ProcCluster
	stateDir string
}

// build constructs the pipeline through the public constructors. stateDir
// receives the WALs of workloads that journal.
func build(in *inputs, stateDir string) (*pipeline, error) {
	w := in.w
	p := &pipeline{w: w}
	p.graph = socialgraph.New(w.nodes)
	for _, e := range in.edges {
		p.graph.AddRelationship(socialgraph.NodeID(e[0]), socialgraph.NodeID(e[1]),
			socialgraph.Relationship{Kind: socialgraph.Friendship})
	}
	p.sets = make([]interest.Set, w.nodes)
	for i := range p.sets {
		p.sets[i] = interest.NewSet(in.interests[i]...)
	}
	// Pretrust is uniform over all peers. With a handful of pretrusted peers
	// the colluders' reputation share hinged on whether one of them happened
	// to rate a colluder, and swung by a third from seed to seed.
	p.et = eigentrust.New(eigentrust.Config{NumNodes: w.nodes})
	p.etTimer = &timedEngine{Engine: p.et, name: "eigentrust.Update"}
	cfg := core.Config{NumNodes: w.nodes}
	cfg.Closeness.MaxPathHops = closenessHops
	p.filter = core.New(cfg, p.graph, p.sets, interest.NewTracker(w.nodes), p.etTimer)
	p.stTimer = &timedEngine{Engine: p.filter, name: "core.Update"}

	var opts manager.Options
	if w.workers > 0 {
		pc, err := cluster.Spawn(cluster.SpawnOptions{Workers: w.workers, Shards: numShards, StateDir: stateDir})
		if err != nil {
			return nil, fmt.Errorf("spawn workers: %w", err)
		}
		p.procs, p.stateDir = pc, stateDir
		opts.Transport = pc.Client()
	} else if w.wal {
		p.stateDir, opts.StateDir = stateDir, stateDir
	}
	o, err := manager.NewWithOptions(w.nodes, numShards, p.stTimer, opts)
	if err != nil {
		_ = p.close() // the overlay error is the one to report
		return nil, fmt.Errorf("overlay: %w", err)
	}
	p.overlay = o
	return p, nil
}

// close stops the overlay and any worker processes, waiting for them.
func (p *pipeline) close() error {
	if p.overlay != nil {
		p.overlay.Close()
	}
	if p.procs != nil {
		return p.procs.Close()
	}
	return nil
}

// stateBytes is the size of the files under the state directory.
func (p *pipeline) stateBytes() int64 {
	if p.stateDir == "" {
		return 0
	}
	var n int64
	_ = filepath.Walk(p.stateDir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n
}

// step is what the benchmark measured over one interval.
type step struct {
	ratings  int
	submit   time.Duration // Σ SubmitBatch
	submits  int
	query    time.Duration   // Σ Query
	queryLat []float64       // per-query latency in µs, traced runs only
	queryAt  []time.Duration // per-query start after the interval's start, traced runs only
	end      time.Duration   // EndIntervalStatus
	core     time.Duration   // core wrapper Update (includes eigentrust)
	eigen    time.Duration   // eigentrust wrapper Update
	wall     time.Duration   // first call to EndIntervalStatus return
	failed   int             // failed ratings, failed queries, drains with a missing shard
	attempts int
	reps     []float64
}

// run drives one interval: every batch is submitted and followed by its
// queries (closed loop, one client), then the interval is closed. Inputs are
// generated before the call; the graph's new friendships land before the
// first timed call.
func (p *pipeline) run(iv interval) (step, error) {
	for _, e := range iv.friendships {
		p.graph.AddRelationship(socialgraph.NodeID(e[0]), socialgraph.NodeID(e[1]),
			socialgraph.Relationship{Kind: socialgraph.Friendship})
	}
	var s step
	s.ratings = len(iv.trace)
	s.attempts = len(iv.trace) + len(iv.queries) + 1
	o, w := p.overlay, p.w
	root := span.Root("bench.interval")
	traced := root != nil
	if traced && len(iv.queries) > 0 {
		s.queryLat = make([]float64, 0, len(iv.queries))
		s.queryAt = make([]time.Duration, 0, len(iv.queries))
	}
	start := time.Now()
	q := 0
	for lo := 0; lo < len(iv.trace); lo += w.batch {
		hi := min(lo+w.batch, len(iv.trace))
		sp := root.Child("manager.SubmitBatch", span.PhaseIngest)
		prev := span.SetAmbient(sp.Context())
		t := time.Now()
		errs := o.SubmitBatch(iv.trace[lo:hi])
		s.submit += time.Since(t)
		span.SetAmbient(prev)
		sp.End()
		s.submits++
		for _, err := range errs {
			if err != nil {
				s.failed++
			}
		}
		for k := 0; k < w.queries; k++ {
			t := time.Now()
			_, err := o.Query(iv.queries[q])
			d := time.Since(t)
			s.query += d
			if traced {
				s.queryLat = append(s.queryLat, float64(d.Nanoseconds())/1e3)
				s.queryAt = append(s.queryAt, t.Sub(start))
			}
			if err != nil {
				s.failed++
			}
			q++
		}
	}
	sp := root.Child("manager.EndIntervalStatus", "")
	prev := span.SetAmbient(sp.Context())
	t := time.Now()
	reps, status := o.EndIntervalStatus()
	s.end = time.Since(t)
	span.SetAmbient(prev)
	sp.End()
	s.wall = time.Since(start)
	root.End()
	s.reps = reps
	if len(status.Missing) > 0 {
		s.failed++
	}
	var received int
	s.core, received = p.stTimer.take()
	s.eigen, _ = p.etTimer.take()
	return s, checkStep(s, status, received)
}

// checkStep verifies one interval's outputs: no failed operation, no shard
// lost or replaced by a replica, every submitted rating delivered to the
// filter, and a finite reputation vector summing to 1.
func checkStep(s step, status manager.DrainStatus, received int) error {
	if s.failed > 0 {
		return fmt.Errorf("%d operations failed", s.failed)
	}
	if len(status.Missing) > 0 || len(status.ReplicaUsed) > 0 {
		return fmt.Errorf("drain lost shards %v, used replicas for %v", status.Missing, status.ReplicaUsed)
	}
	if received != s.ratings {
		return fmt.Errorf("filter received %d ratings, %d were submitted", received, s.ratings)
	}
	sum := 0.0
	for i, v := range s.reps {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("reputation of node %d is %v", i, v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("reputations sum to %.12f, want 1", sum)
	}
	return nil
}
