package sim

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"socialtrust/internal/audit"
	"socialtrust/internal/fault"
)

// TestChaosRunCompletes is the headline robustness acceptance: a full sim
// run with a crashed shard and 10% message drop completes without deadlock,
// EndInterval degrades to the surviving quorum, and replica failover
// recovers crashed shards' interval data.
func TestChaosRunCompletes(t *testing.T) {
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
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := net.Run()
	if res.TotalRequests == 0 {
		t.Fatal("chaos run served no requests")
	}
	// The plan injected drops and outages; retry + replication absorb them
	// (a rating dies only when three attempts drop on BOTH the primary and
	// the replica, ~1e-6 per rating — usually zero even at 10% drop).
	kinds := map[string]int{}
	for _, e := range net.FaultPlan.Events() {
		kinds[e.Kind]++
	}
	if kinds[fault.KindDrop] == 0 {
		t.Fatal("10% drop injected no drop events — plan not reaching the overlay")
	}
	if kinds[fault.KindCrash] != 2 || kinds[fault.KindRestart] != 2 {
		t.Fatalf("crash/restart events = %v, want 2 of each", kinds)
	}
	if res.ReplicaDrains == 0 {
		t.Fatal("crashed shards' intervals were never recovered from replicas")
	}
	// Both crashed shards had a live replica holder, so no drain lost data.
	if res.PartialDrains != 0 {
		t.Fatalf("PartialDrains = %d, want 0 (every crash had a live replica)", res.PartialDrains)
	}
}

// TestFaultGoldenDeterminism is the golden reproducibility acceptance: the
// same fault seed must yield an identical injected-event sequence, an
// identical audit detection table, and identical reputations across runs —
// churn included.
func TestFaultGoldenDeterminism(t *testing.T) {
	run := func(dir string) (*Result, audit.Report, []byte) {
		cfg := smallConfig(PCM, EngineEigenTrust, 0.6, true)
		cfg.Managers = 4
		cfg.Faults = fault.Config{Seed: 9, Drop: 0.05, CrashRate: 0.05}
		cfg.Churn = ChurnConfig{DepartPerCycle: 0.05, RejoinPerCycle: 0.5, WhitewashFraction: 0.2}
		cfg.AuditDir = dir
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		gt, events, err := audit.LoadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join(dir, audit.FaultsFile))
		if err != nil {
			t.Fatal(err)
		}
		return res, audit.Score(gt, events), raw
	}
	res1, rep1, log1 := run(t.TempDir())
	res2, rep2, log2 := run(t.TempDir())

	if string(log1) != string(log2) {
		t.Fatal("same fault seed produced different injected-event logs")
	}
	if len(log1) == 0 {
		t.Fatal("fault run injected nothing — log is empty")
	}
	if !reflect.DeepEqual(res1.FinalReputations, res2.FinalReputations) {
		t.Fatal("same seed produced different final reputations under faults")
	}
	if res1.RatingsLost != res2.RatingsLost || res1.Churn != res2.Churn {
		t.Fatalf("fault/churn accounting diverged: %+v/%+v vs %+v/%+v",
			res1.RatingsLost, res1.Churn, res2.RatingsLost, res2.Churn)
	}
	if !reflect.DeepEqual(rep1.Overall, rep2.Overall) {
		t.Fatal("same seed produced different audit detection tables")
	}
}

// overallF1 extracts a behavior's overall F1 from an audit report.
func overallF1(t *testing.T, rep audit.Report, behavior string) float64 {
	t.Helper()
	for _, s := range rep.Overall {
		if s.Behavior == behavior {
			return s.F1
		}
	}
	t.Fatalf("behavior %q missing from report", behavior)
	return 0
}

// TestChurnDetectionWithinMargin: moderate churn (no faults) must not
// collapse SocialTrust's collusion detection — overall F1 for PCM and MCM
// stays within a fixed margin of the static-population baseline.
func TestChurnDetectionWithinMargin(t *testing.T) {
	const margin = 0.25
	for _, model := range []CollusionModel{PCM, MCM} {
		score := func(churn ChurnConfig) float64 {
			dir := t.TempDir()
			cfg := smallConfig(model, EngineEigenTrust, 0.6, true)
			cfg.Churn = churn
			cfg.AuditDir = dir
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
			gt, events, err := audit.LoadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			return overallF1(t, audit.Score(gt, events), "any")
		}
		static := score(ChurnConfig{})
		churned := score(ChurnConfig{DepartPerCycle: 0.05, RejoinPerCycle: 0.5})
		if static == 0 {
			t.Fatalf("%v: static baseline detected nothing", model)
		}
		if churned < static-margin {
			t.Fatalf("%v: churn F1 %.3f fell more than %.2f below static %.3f",
				model, churned, margin, static)
		}
	}
}

// TestWhitewashRejoinNewcomerReputation: a peer that rejoins under a fresh
// identity must restart at newcomer reputation — the engine forgets it
// entirely (exactly zero under the eBay baseline, which scores only
// accumulated feedback).
func TestWhitewashRejoinNewcomerReputation(t *testing.T) {
	cfg := smallConfig(NoCollusion, EngineEBay, 0.2, false)
	cfg.Churn = ChurnConfig{DepartPerCycle: 0.3, RejoinPerCycle: 1, WhitewashFraction: 1}
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := net.Run()
	if res.Churn.Departures == 0 || res.Churn.WhitewashRejoins == 0 {
		t.Fatalf("churn regime produced no whitewash-rejoins: %+v", res.Churn)
	}
	// Find an online normal peer with standing reputation and whitewash it:
	// the fresh identity must hold exactly zero reputation.
	victim := -1
	for id := cfg.NumPretrusted + cfg.NumColluders; id < cfg.NumNodes; id++ {
		if net.Engine.Reputation(id) > 0 {
			victim = id
			break
		}
	}
	if victim < 0 {
		t.Fatal("no normal peer earned reputation")
	}
	net.whitewash(victim)
	if got := net.Engine.Reputation(victim); got != 0 {
		t.Fatalf("whitewash-rejoined peer reputation = %v, want 0 (newcomer)", got)
	}
}

// TestFaultsRequireManagers pins churn validation: an out-of-range churn
// probability is a configuration error, not a silent clamp. Fault injection
// needs no explicit Managers — see TestFaultsOnDefaultSingleShard.
func TestFaultsRequireManagers(t *testing.T) {
	cfg := smallConfig(PCM, EngineEigenTrust, 0.6, false)
	cfg.Churn = ChurnConfig{DepartPerCycle: 1.5}
	if _, err := Run(cfg); err == nil {
		t.Fatal("out-of-range churn probability should fail validation")
	}
}

// TestFaultsOnDefaultSingleShard runs fault injection on the default
// overlay of one shard. With no successor to mirror to, a crashed shard's
// interval is lost outright and submissions made while it is down fail, so
// the run must report lost ratings and partial drains — and still complete,
// reproducibly.
func TestFaultsOnDefaultSingleShard(t *testing.T) {
	run := func() *Result {
		cfg := smallConfig(PCM, EngineEigenTrust, 0.6, false)
		cfg.Faults = fault.Config{
			Drop:    0.1,
			Crashes: []fault.Crash{{Shard: 0, AtInterval: 2, Down: 1}},
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first, second := run(), run()
	if first.RatingsLost == 0 || first.PartialDrains == 0 {
		t.Fatalf("single-shard crash lost nothing: RatingsLost=%d PartialDrains=%d",
			first.RatingsLost, first.PartialDrains)
	}
	if len(first.History) != len(second.History) {
		t.Fatalf("history length %d vs %d", len(first.History), len(second.History))
	}
	for c := range first.History {
		if !sameBits(first.History[c], second.History[c]) {
			t.Fatalf("same fault seed diverged at cycle %d", c+1)
		}
	}
}
