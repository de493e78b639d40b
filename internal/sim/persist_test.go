package sim

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"socialtrust/internal/fault"
	"socialtrust/internal/obs/event"
	"socialtrust/internal/persist"
	"socialtrust/internal/rating"
	"socialtrust/internal/reputation/ebay"
	"socialtrust/internal/reputation/eigentrust"
	"socialtrust/internal/reputation/trustguard"
	"socialtrust/internal/socialgraph"
)

// runOutcome is everything a durability comparison judges: the full Result
// plus the deterministic audit event stream (reputations, detection table,
// and time series all live in one of the two).
type runOutcome struct {
	res    *Result
	events []event.Event
}

// runToCompletion executes a run — durable when stateDir is non-empty, and
// resuming when that directory already holds a snapshot — with the flight
// recorder on, and returns its outcome. Mirrors Run(cfg)'s event stitching.
func runToCompletion(t *testing.T, cfg Config, stateDir string) runOutcome {
	t.Helper()
	cfg.StateDir = stateDir
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := event.Enable(auditCapacity(cfg))
	defer event.Disable()
	res := net.Run()
	if res == nil {
		t.Fatal("run halted unexpectedly")
	}
	events := append(append([]event.Event(nil), net.savedEvents...), rec.Drain()...)
	return runOutcome{res: res, events: events}
}

// runUntilCrash executes a durable run that dies mid-interval at the given
// halt point — the in-process equivalent of a kill -9: WAL appends up to the
// halt were flushed, the snapshot is whatever the last interval boundary
// wrote, and everything else (ring tail, in-memory state) is lost.
func runUntilCrash(t *testing.T, cfg Config, stateDir string, halt haltPoint) {
	t.Helper()
	cfg.StateDir = stateDir
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net.haltAt = &halt
	rec := event.Enable(auditCapacity(cfg))
	defer event.Disable()
	if res := net.Run(); res != nil {
		t.Fatalf("run completed instead of halting at cycle %d qc %d", halt.cycle, halt.qc)
	}
	_ = rec // the dead process's ring tail is lost with it
}

// scrubEvents strips the wall-clock observations (cycle QPS/wall/phase
// attribution, manager operation seconds) and the asynchronous health stream
// from an event stream, leaving exactly the deterministic payload the
// byte-identity contract covers.
func scrubEvents(evs []event.Event) []event.Event {
	out := make([]event.Event, 0, len(evs))
	for _, e := range evs {
		if e.Health != nil {
			continue
		}
		if e.Cycle != nil {
			c := *e.Cycle
			c.QPS, c.WallSeconds, c.Phases = 0, 0, nil
			e.Cycle = &c
		}
		if e.Manager != nil {
			m := *e.Manager
			m.Seconds = 0
			e.Manager = &m
		}
		out = append(out, e)
	}
	return out
}

// sameBits compares float64 slices bit-for-bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// requireIdentical asserts two outcomes are bit-identical across every
// deterministic surface.
func requireIdentical(t *testing.T, want, got runOutcome) {
	t.Helper()
	if !sameBits(want.res.FinalReputations, got.res.FinalReputations) {
		t.Fatal("final reputations diverged")
	}
	if len(want.res.History) != len(got.res.History) {
		t.Fatalf("history length %d vs %d", len(got.res.History), len(want.res.History))
	}
	for c := range want.res.History {
		if !sameBits(want.res.History[c], got.res.History[c]) {
			t.Fatalf("reputation history diverged at cycle %d", c+1)
		}
	}
	if !sameBits(want.res.PerCycleColluderShare, got.res.PerCycleColluderShare) {
		t.Fatal("per-cycle colluder share diverged")
	}
	// Everything else in Result is integral; DeepEqual over the whole struct
	// also re-checks the float fields (== on non-NaN floats).
	if !reflect.DeepEqual(want.res, got.res) {
		t.Fatalf("results diverged:\nwant %+v\ngot  %+v", want.res, got.res)
	}
	w, g := scrubEvents(want.events), scrubEvents(got.events)
	if len(w) != len(g) {
		t.Fatalf("event stream length %d vs %d", len(g), len(w))
	}
	for i := range w {
		if !reflect.DeepEqual(w[i], g[i]) {
			t.Fatalf("event %d diverged:\nwant %+v\ngot  %+v", i, w[i], g[i])
		}
	}
}

// TestCrashRestartBitIdentity is the durability acceptance: a run killed
// mid-interval and restarted over its state directory produces reputations,
// detection tables, and audit event streams bit-identical to an
// uninterrupted run of the same seed — across engines, the manager overlay
// with fault injection, churn, whitewashing, and oscillation.
func TestCrashRestartBitIdentity(t *testing.T) {
	cases := []struct {
		name string
		cfg  func() Config
		halt haltPoint
	}{
		{
			name: "direct-eigentrust-mcm",
			cfg:  func() Config { return smallConfig(MCM, EngineEigenTrust, 0.2, true) },
			halt: haltPoint{cycle: 3, qc: 5},
		},
		{
			name: "direct-ebay-whitewash-oscillation",
			cfg: func() Config {
				cfg := smallConfig(PCM, EngineEBay, 0.2, false)
				cfg.WhitewashThreshold = 0.001
				cfg.OscillationCycle = 3
				return cfg
			},
			halt: haltPoint{cycle: 4, qc: 2},
		},
		{
			name: "direct-trustguard-mmm",
			cfg:  func() Config { return smallConfig(MMM, EngineTrustGuard, 0.2, true) },
			halt: haltPoint{cycle: 2, qc: 8},
		},
		{
			name: "overlay-chaos-churn",
			cfg: func() Config {
				cfg := smallConfig(PCM, EngineEigenTrust, 0.6, true)
				cfg.Managers = 4
				cfg.Faults = fault.Config{
					Seed: 3,
					Drop: 0.1,
					Crashes: []fault.Crash{
						{Shard: 1, AtInterval: 2, Down: 2},
						{Shard: 3, AtInterval: 5, Down: 1},
					},
				}
				cfg.Churn = ChurnConfig{DepartPerCycle: 0.05, RejoinPerCycle: 0.5, WhitewashFraction: 0.2}
				return cfg
			},
			// Dies while shard 1 is down: the interrupted interval's replay
			// and re-execution must reproduce the failover verdicts too.
			halt: haltPoint{cycle: 2, qc: 5},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := runToCompletion(t, tc.cfg(), "")
			dir := t.TempDir()
			runUntilCrash(t, tc.cfg(), dir, tc.halt)
			got := runToCompletion(t, tc.cfg(), dir)
			requireIdentical(t, ref, got)
		})
	}
}

// TestCrashRestartTwice covers back-to-back failures: crash, resume, crash
// again later, resume again — still bit-identical.
func TestCrashRestartTwice(t *testing.T) {
	cfg := func() Config { return smallConfig(MCM, EngineEigenTrust, 0.2, true) }
	ref := runToCompletion(t, cfg(), "")
	dir := t.TempDir()
	runUntilCrash(t, cfg(), dir, haltPoint{cycle: 2, qc: 7})
	runUntilCrash(t, cfg(), dir, haltPoint{cycle: 5, qc: 3})
	got := runToCompletion(t, cfg(), dir)
	requireIdentical(t, ref, got)
}

// TestCrashRestartTornTail is the torn-write integration variant: the
// process dies mid-append, leaving a partial final record in the shard WAL.
// Open truncates the torn frame; the lost suffix is regenerated by the
// deterministic re-execution, so the resumed run is still bit-identical.
func TestCrashRestartTornTail(t *testing.T) {
	cfg := func() Config { return smallConfig(MCM, EngineEigenTrust, 0.2, true) }
	ref := runToCompletion(t, cfg(), "")
	dir := t.TempDir()
	runUntilCrash(t, cfg(), dir, haltPoint{cycle: 3, qc: 5})
	walPath := filepath.Join(dir, "shards", "shard-0.wal")
	info, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() < 16 {
		t.Fatalf("shard WAL only %d bytes; crash left no journaled tail", info.Size())
	}
	if err := os.Truncate(walPath, info.Size()-3); err != nil {
		t.Fatal(err)
	}
	got := runToCompletion(t, cfg(), dir)
	requireIdentical(t, ref, got)
}

// TestResumeCompletedRun restarts over the directory of a finished run: the
// final snapshot restores everything and the loop body never executes.
func TestResumeCompletedRun(t *testing.T) {
	cfg := smallConfig(PCM, EngineEigenTrust, 0.6, true)
	dir := t.TempDir()
	first := runToCompletion(t, cfg, dir)
	again := runToCompletion(t, cfg, dir)
	if !sameBits(first.res.FinalReputations, again.res.FinalReputations) {
		t.Fatal("re-running a completed durable run changed its reputations")
	}
	if again.res.TotalRequests != first.res.TotalRequests {
		t.Fatalf("restored TotalRequests = %d, want %d", again.res.TotalRequests, first.res.TotalRequests)
	}
}

// TestSnapshotFingerprintMismatch pins the safety rail: a state directory
// written under one configuration refuses to resume under another, while
// fingerprint-exempt knobs (worker parallelism, output dirs) may differ.
func TestSnapshotFingerprintMismatch(t *testing.T) {
	base := smallConfig(MCM, EngineEigenTrust, 0.2, true)
	dir := t.TempDir()
	runUntilCrash(t, base, dir, haltPoint{cycle: 2, qc: 0})

	changed := base
	changed.ColluderGood = 0.9
	changed.StateDir = dir
	if _, err := NewNetwork(changed); err == nil {
		t.Fatal("resume under a different configuration did not error")
	}

	exempt := base
	exempt.Workers = 1
	exempt.StateDir = dir
	net, err := NewNetwork(exempt)
	if err != nil {
		t.Fatalf("resume with different worker count: %v", err)
	}
	if net.resume == nil {
		t.Fatal("fingerprint-exempt resume did not pick up the snapshot")
	}
	net.abandon()
}

// TestResumeRefusesMalformedSnapshot pins that a CRC-valid snapshot that does
// not fit the configured run is refused with an error at construction, one
// case per rule, instead of panicking when the resume indexes per-node and
// per-shard rows or imports a state the configuration needs.
func TestResumeRefusesMalformedSnapshot(t *testing.T) {
	configs := map[string]Config{
		"eigentrust": smallConfig(MCM, EngineEigenTrust, 0.2, true),
		"ebay":       smallConfig(MCM, EngineEBay, 0.2, true),
		"trustguard": smallConfig(MCM, EngineTrustGuard, 0.2, true),
	}
	faulty := configs["eigentrust"]
	faulty.Managers = 2
	faulty.Faults = fault.Config{Seed: 3, Drop: 0.1}
	configs["faults"] = faulty
	n := faulty.NumNodes
	friend := []socialgraph.Relationship{{Kind: socialgraph.Friendship}}
	cases := []struct {
		name, cfg string
		mutate    func(*runState)
	}{
		{"graph node count", "eigentrust", func(st *runState) { st.Graph.NumNodes = n + 1 }},
		{"graph interaction rows", "eigentrust", func(st *runState) { st.Graph.Interactions = st.Graph.Interactions[:n-1] }},
		{"graph edge out of range", "eigentrust", func(st *runState) {
			st.Graph.Edges = append(st.Graph.Edges, socialgraph.EdgeState{I: 0, J: socialgraph.NodeID(n + 3), Rels: friend})
		}},
		{"graph self edge", "eigentrust", func(st *runState) {
			st.Graph.Edges = append(st.Graph.Edges, socialgraph.EdgeState{I: 4, J: 4, Rels: friend})
		}},
		{"graph interaction out of range", "eigentrust", func(st *runState) {
			st.Graph.Interactions[0] = map[socialgraph.NodeID]float64{socialgraph.NodeID(n): 1}
		}},
		{"reputation vector length", "eigentrust", func(st *runState) { st.Reps = st.Reps[:n-1] }},
		{"online flags length", "eigentrust", func(st *runState) { st.Online = st.Online[:n-1] }},
		{"node QoS length", "eigentrust", func(st *runState) { st.NodeGood = st.NodeGood[:n-1] }},
		{"node honeymoon length", "eigentrust", func(st *runState) { st.NodeHoneymoon = append(st.NodeHoneymoon, 0) }},
		{"node stream position length", "eigentrust", func(st *runState) { st.NodeRNGDraws = st.NodeRNGDraws[:n-1] }},
		{"colluder last-above length", "eigentrust", func(st *runState) { st.LastAbove = st.LastAbove[:1] }},
		{"colluder ever-above length", "eigentrust", func(st *runState) { st.EverAbove = nil }},
		{"drained shard marks missing", "eigentrust", func(st *runState) { st.DrainedSeqs = nil }},
		{"filter state missing", "eigentrust", func(st *runState) { st.Filter = nil }},
		{"engine state of another kind", "eigentrust", func(st *runState) {
			st.EngineET, st.EngineEBay = nil, &ebay.State{Scores: make([]float64, n)}
		}},
		{"engine trust vector length", "eigentrust", func(st *runState) { st.EngineET.T = append(st.EngineET.T, 0) }},
		{"engine rater out of range", "eigentrust", func(st *runState) { st.EngineET.Sums[rating.PairKey{Rater: -1, Ratee: 0}] = 1 }},
		{"engine ratee out of range", "eigentrust", func(st *runState) { st.EngineET.Sums[rating.PairKey{Rater: 0, Ratee: n}] = 1 }},
		{"engine self pair", "eigentrust", func(st *runState) { st.EngineET.Sums[rating.PairKey{Rater: 4, Ratee: 4}] = 1 }},
		{"eBay score count", "ebay", func(st *runState) { st.EngineEBay.Scores = st.EngineEBay.Scores[:n-1] }},
		{"TrustGuard history count", "trustguard", func(st *runState) { st.EngineTG.HistN = st.EngineTG.HistN[:n-1] }},
		{"TrustGuard reputation count", "trustguard", func(st *runState) { st.EngineTG.Rep = append(st.EngineTG.Rep, 0) }},
		{"TrustGuard opinion out of range", "trustguard", func(st *runState) {
			st.EngineTG.Opinions = append(st.EngineTG.Opinions, trustguard.OpinionState{Key: rating.PairKey{Rater: n, Ratee: 0}, Sum: 1, N: 1})
		}},
		{"fault state missing", "faults", func(st *runState) { st.Fault = nil }},
		{"fault outage shard count", "faults", func(st *runState) { st.Fault.DownUntil = st.Fault.DownUntil[:1] }},
		{"fault delivery shard count", "faults", func(st *runState) { st.Fault.DeliveryDraws = append(st.Fault.DeliveryDraws, 0) }},
	}
	// One crashed run per configuration supplies the well-formed snapshot
	// every case of that configuration starts from.
	dirs, origs := map[string]string{}, map[string][]byte{}
	for name, cfg := range configs {
		dirs[name] = t.TempDir()
		runUntilCrash(t, cfg, dirs[name], haltPoint{cycle: 2, qc: 0})
		orig, err := os.ReadFile(filepath.Join(dirs[name], "snapshot.st"))
		if err != nil {
			t.Fatal(err)
		}
		origs[name] = orig
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(dirs[c.cfg], "snapshot.st")
			if err := os.WriteFile(path, origs[c.cfg], 0o644); err != nil {
				t.Fatal(err)
			}
			var st runState
			if err := persist.LoadSnapshot(path, &st); err != nil {
				t.Fatal(err)
			}
			c.mutate(&st)
			if err := persist.WriteSnapshot(path, &st); err != nil {
				t.Fatal(err)
			}
			cfg := configs[c.cfg]
			cfg.StateDir = dirs[c.cfg]
			net, err := NewNetwork(cfg)
			if err == nil {
				net.abandon()
				t.Fatal("a malformed snapshot was accepted for resume")
			}
			if !strings.Contains(err.Error(), "malformed snapshot") {
				t.Fatalf("refused for the wrong reason: %v", err)
			}
		})
	}
}

// TestSnapshotRoundTripProperty is the state-surface property test across
// the three collusion models: exporting every persistent substrate from a
// finished run, importing into a freshly constructed network, re-exporting
// deep-equal, and then driving both engines with one further identical
// interval snapshot must produce bit-identical reputations — i.e. Restore is
// lossless for Adjust+Update, not just for storage.
func TestSnapshotRoundTripProperty(t *testing.T) {
	for _, model := range []CollusionModel{PCM, MCM, MMM} {
		t.Run(model.String(), func(t *testing.T) {
			cfg := smallConfig(model, EngineEigenTrust, 0.2, true)
			n1, err := NewNetwork(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res := n1.Run(); res == nil {
				t.Fatal("run halted")
			}
			n2, err := NewNetwork(cfg)
			if err != nil {
				t.Fatal(err)
			}
			gs := n1.Graph.ExportState()
			fs := n1.Filter.ExportState()
			es := n1.inner.(*eigentrust.Engine).ExportState()
			n2.Graph.ImportState(gs)
			n2.Filter.ImportState(fs)
			n2.inner.(*eigentrust.Engine).ImportState(es)
			if got := n2.Graph.ExportState(); !reflect.DeepEqual(gs, got) {
				t.Fatal("graph state did not round-trip")
			}
			if got := n2.Filter.ExportState(); !reflect.DeepEqual(fs, got) {
				t.Fatal("filter state did not round-trip")
			}
			if got := n2.inner.(*eigentrust.Engine).ExportState(); !reflect.DeepEqual(es, got) {
				t.Fatal("engine state did not round-trip")
			}
			// One more interval of identical ratings through both stacks
			// (separate ledgers — Adjust shrinks snapshot values in place).
			snap := func() rating.Snapshot {
				l := rating.NewLedger(cfg.NumNodes)
				var seq uint64
				for i := 0; i < cfg.NumNodes; i++ {
					v := 1.0
					if i%4 == 0 {
						v = -1
					}
					seq++
					if err := l.Add(rating.Rating{
						Rater: i, Ratee: (i + 7) % cfg.NumNodes, Value: v,
						Cycle: 999, Category: i % cfg.NumInterests, Seq: seq,
					}); err != nil {
						t.Fatal(err)
					}
				}
				return l.EndInterval()
			}
			n1.Engine.Update(snap())
			n2.Engine.Update(snap())
			if !sameBits(n1.Engine.Reputations(), n2.Engine.Reputations()) {
				t.Fatal("post-restore Adjust+Update diverged from the never-persisted instance")
			}
		})
	}
}
