package sim

import (
	"reflect"
	"testing"

	"socialtrust/internal/audit"
	"socialtrust/internal/fault"
	"socialtrust/internal/obs/event"
)

// TestOverlayModeMatchesDirect pins the overlay's determinism contract
// across shard counts: the same seeded experiment through the default single
// manager shard and through 4 and 7 shards (7 does not divide the 200 nodes)
// must produce bit-identical reputation histories, equal detection reports,
// and equal filter decisions for every collusion model. Each shard's ledger
// sorts its snapshot and the drain merge restores the one global order, so
// the engine sees the same interval whatever the sharding. Of the event
// stream only the filter-decision payloads are compared: drain events carry
// the shard count.
func TestOverlayModeMatchesDirect(t *testing.T) {
	type outcome struct {
		res       *Result
		report    audit.Report
		decisions []event.FilterDecision
	}
	run := func(t *testing.T, model CollusionModel, managers int) outcome {
		cfg := DefaultConfig(model, EngineEigenTrust, 0.6, true)
		cfg.QueryCycles, cfg.SimulationCycles = 5, 4
		cfg.Seed = 7
		cfg.Managers = managers
		net, err := NewNetwork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rec := event.Enable(auditCapacity(cfg))
		defer event.Disable()
		res := net.Run()
		events := rec.Drain()
		var decisions []event.FilterDecision
		for _, e := range events {
			if e.Filter != nil {
				decisions = append(decisions, *e.Filter)
			}
		}
		return outcome{res: res, report: audit.Score(net.GroundTruth(), events), decisions: decisions}
	}
	for _, model := range []CollusionModel{PCM, MCM, MMM} {
		t.Run(model.String(), func(t *testing.T) {
			ref := run(t, model, 0)
			if len(ref.decisions) == 0 {
				t.Fatal("single-shard run recorded no filter decisions")
			}
			for _, managers := range []int{4, 7} {
				got := run(t, model, managers)
				if !sameBits(got.res.FinalReputations, ref.res.FinalReputations) {
					t.Fatalf("%d shards: final reputations diverge from one shard", managers)
				}
				if len(got.res.History) != len(ref.res.History) {
					t.Fatalf("%d shards: history length %d, want %d", managers, len(got.res.History), len(ref.res.History))
				}
				for c := range ref.res.History {
					if !sameBits(got.res.History[c], ref.res.History[c]) {
						t.Fatalf("%d shards: reputation history diverges at cycle %d", managers, c+1)
					}
				}
				if !reflect.DeepEqual(got.res, ref.res) {
					t.Fatalf("%d shards: results diverge:\ngot  %+v\nwant %+v", managers, got.res, ref.res)
				}
				if !reflect.DeepEqual(got.report, ref.report) {
					t.Fatalf("%d shards: detection report diverges:\ngot  %+v\nwant %+v", managers, got.report, ref.report)
				}
				if !reflect.DeepEqual(got.decisions, ref.decisions) {
					t.Fatalf("%d shards: filter decisions diverge from one shard", managers)
				}
			}
		})
	}
}

// TestFaultModeBitIdenticalToSeedOverlay proves the replica machinery free
// of observable effect when nothing is injected: the same experiment through
// the seed overlay and through fault-tolerant mode (replication, retries,
// deadlines armed via AlwaysOn, zero injected faults) must produce
// bit-identical reputation vectors — the replica ledgers mirror the
// primaries exactly and never perturb the merge.
func TestFaultModeBitIdenticalToSeedOverlay(t *testing.T) {
	cfg := DefaultConfig(PCM, EngineEigenTrust, 0.6, true)
	cfg.QueryCycles, cfg.SimulationCycles = 5, 4
	cfg.Seed = 7
	cfg.Managers = 4

	seed, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = fault.Config{AlwaysOn: true}
	hardened, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if seed.TotalRequests != hardened.TotalRequests {
		t.Fatalf("requests: seed %d, fault-mode %d", seed.TotalRequests, hardened.TotalRequests)
	}
	for i := range seed.FinalReputations {
		if seed.FinalReputations[i] != hardened.FinalReputations[i] {
			t.Fatalf("reputation[%d]: seed overlay %g, fault-mode overlay %g (not bit-identical)",
				i, seed.FinalReputations[i], hardened.FinalReputations[i])
		}
	}
	if hardened.RatingsLost != 0 || hardened.PartialDrains != 0 || hardened.ReplicaDrains != 0 {
		t.Fatalf("AlwaysOn plan with zero rates injected faults: %+v", hardened)
	}
}

// TestOverlayConfigValidation rejects impossible manager counts.
func TestOverlayConfigValidation(t *testing.T) {
	cfg := DefaultConfig(PCM, EngineEigenTrust, 0.6, false)
	cfg.Managers = cfg.NumNodes + 1
	if _, err := Run(cfg); err == nil {
		t.Error("Managers > NumNodes should fail validation")
	}
	cfg.Managers = -1
	if _, err := Run(cfg); err == nil {
		t.Error("negative Managers should fail validation")
	}
}
