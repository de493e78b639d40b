package health

import (
	"fmt"
	"testing"

	"socialtrust/internal/obs"
)

// populateRegistry fills a private registry with the metric families a
// managed run at roughly shards overlay shards leaves behind, so the
// benchmark samples an exposition the size of a live ops-plane scrape
// (per-shard mailbox gauges are the only family that scales with topology;
// everything else is a fixed set regardless of node count).
func populateRegistry(reg *obs.Registry, shards int) {
	reg.Counter("manager_submit_total").Add(1 << 20)
	reg.Counter("manager_drain_total").Add(512)
	reg.Counter("manager_drain_partial_total").Add(3)
	reg.Counter("manager_drain_replica_total").Add(1)
	reg.Counter("manager_submit_failover_total").Add(9)
	reg.Counter("manager_submit_retries_total").Add(12)
	reg.Counter("manager_shard_crashes_total").Add(2)
	reg.Gauge("manager_shards").Set(float64(shards))
	reg.Gauge("manager_shards_down").Set(0)
	for i := 0; i < shards; i++ {
		reg.Gauge(obs.Label("manager_mailbox_depth", "shard", fmt.Sprint(i))).Set(float64(i % 7))
	}
	reg.Gauge("eigentrust_residual").Set(3e-7)
	reg.Gauge("eigentrust_converged").Set(1)
	reg.Counter("eigentrust_maxiter_hits").Add(0)
	reg.Counter("eigentrust_warm_start_skips").Add(17)
	reg.Counter("eigentrust_updates_total").Add(512)
	reg.Counter("sim_cycles_total").Add(512)
	reg.Counter("sim_requests_total").Add(1 << 22)
	reg.Gauge("sim_queries_per_second").Set(40_000)
	reg.Gauge("sim_interval_last_seconds").Set(0.8)
	for _, name := range []string{
		"sim_cycle_seconds", "manager_drain_seconds",
		"socialtrust_adjust_seconds", "eigentrust_update_seconds",
	} {
		h := reg.Histogram(name)
		for i := 0; i < 64; i++ {
			h.Observe(float64(i%10) / 100)
		}
	}
}

// BenchmarkSampleOnce prices one sampler tick — the runtime capture, the
// registry snapshot, the flatten, and the full watchdog pass — against a
// registry populated like a 10k-node managed run (16 overlay shards). The
// sampler amortizes this cost over its cadence (default 1s); the CI health
// job also divides it by BenchmarkPipeline10k's interval wall time and fails
// when one tick costs 1% of an interval or more.
func BenchmarkSampleOnce(b *testing.B) {
	reg := obs.NewRegistry()
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	populateRegistry(reg, 16)
	s := New(Config{Registry: reg})
	// Pre-fill the window so every timed tick overwrites the oldest sample.
	for i := 0; i < 130; i++ {
		s.SampleOnce()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SampleOnce()
	}
}
