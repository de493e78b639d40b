package sim

import "testing"

// BenchmarkPaperScaleRun prices complete paper-scale simulations: the
// Section 5.1 MCM setup under EigenTrust wrapped by SocialTrust, 200 nodes,
// 30 query cycles × 50 simulation cycles, through the default single
// manager shard. One op runs seeds 1–5 so it covers the seed spread; s/run
// is the wall time of one simulation.
func BenchmarkPaperScaleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for seed := uint64(1); seed <= 5; seed++ {
			cfg := DefaultConfig(MCM, EngineEigenTrust, 0.4, true)
			cfg.Seed = seed
			if _, err := Run(cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()/float64(5*b.N), "s/run")
}
