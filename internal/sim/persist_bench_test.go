package sim

import (
	"path/filepath"
	"testing"

	"socialtrust/internal/persist"
)

// benchStateConfig scales the Section 5.1 setup to 10k nodes (preserving the
// population proportions) with a short horizon — the geometry the snapshot
// and recovery benchmarks run at. Closeness paths are capped at 3 hops, as in
// the pipeline benchmarks, to keep the Ωc BFS bounded at this size.
func benchStateConfig() Config {
	cfg := DefaultConfig(MCM, EngineEigenTrust, 0.2, true)
	cfg.NumNodes = 10_000
	cfg.NumPretrusted = 450
	cfg.NumColluders = 1500
	cfg.NumBoosted = 375
	cfg.SimulationCycles = 2
	cfg.QueryCycles = 2
	cfg.Filter.Closeness.MaxPathHops = 3
	cfg.Seed = 7
	return cfg
}

// BenchmarkSnapshotRestore10k prices one interval-boundary checkpoint round
// trip at 10k nodes: capturing the full run state, writing the snapshot
// atomically, and loading it back — the per-interval durability cost plus
// the deserialization half of a recovery.
func BenchmarkSnapshotRestore10k(b *testing.B) {
	cfg := benchStateConfig()
	cfg.SimulationCycles = 1
	cfg.StateDir = b.TempDir()
	net, err := NewNetwork(cfg)
	if err != nil {
		b.Fatal(err)
	}
	res := net.Run()
	if res == nil {
		b.Fatal("run halted")
	}
	la := make([]int, cfg.NumColluders)
	ea := make([]bool, cfg.NumColluders)
	path := filepath.Join(b.TempDir(), "snapshot.st")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := net.captureState(res, la, ea, res.FinalReputations, cfg.SimulationCycles)
		if err := persist.WriteSnapshot(path, st); err != nil {
			b.Fatal(err)
		}
		var back runState
		if err := persist.LoadSnapshot(path, &back); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(b.Elapsed().Seconds()/float64(b.N), "s/roundtrip")
}

// BenchmarkCrashRecovery10k prices a full crash restart at 10k nodes: a
// durable run dies mid-interval (leaving a snapshot plus a journaled WAL
// tail), and each iteration measures what a restarted process pays before it
// can resume — network construction, snapshot load and validation, state
// import, stream fast-forward, and WAL tail replay.
func BenchmarkCrashRecovery10k(b *testing.B) {
	cfg := benchStateConfig()
	cfg.StateDir = b.TempDir()
	crash, err := NewNetwork(cfg)
	if err != nil {
		b.Fatal(err)
	}
	crash.haltAt = &haltPoint{cycle: 1, qc: 1}
	if res := crash.Run(); res != nil {
		b.Fatal("run completed instead of halting")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net, err := NewNetwork(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res := &Result{
			ServedByType:      make(map[NodeType]int),
			ConvergenceCycles: make([]int, cfg.NumColluders),
		}
		la := make([]int, cfg.NumColluders)
		ea := make([]bool, cfg.NumColluders)
		if _, start := net.applyResume(res, la, ea); start != 1 {
			b.Fatalf("resumed at cycle %d, want 1", start)
		}
		net.abandon()
	}
	b.StopTimer()
	b.ReportMetric(b.Elapsed().Seconds()/float64(b.N), "s/recovery")
}
