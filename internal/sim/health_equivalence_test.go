package sim

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"socialtrust/internal/audit"
	"socialtrust/internal/fault"
	"socialtrust/internal/obs"
	"socialtrust/internal/obs/event"
	"socialtrust/internal/obs/health"
)

// TestFullSimHealthBitIdentity is the determinism acceptance for the ops
// plane: for each collusion model, clean and under churn+faults, a complete
// managed run with the health sampler ticking concurrently must be
// byte-identical to the same run without it — reputations, per-cycle
// history, the detection report, and the deterministic audit streams on
// disk. The sampler only reads state, so the sole permitted difference is
// the presence of health events, which the audit layer splits into their own
// file. Seq is assigned at record time and asynchronous health events shift
// it for later deterministic events, so Seq is renumbered per-kind before
// comparison — payload content and order are the pinned contract.
func TestFullSimHealthBitIdentity(t *testing.T) {
	type outcome struct {
		res    *Result
		report audit.Report
		dir    string
	}
	run := func(t *testing.T, model CollusionModel, chaos, healthOn bool) outcome {
		cfg := smallConfig(model, EngineEigenTrust, 0.4, true)
		cfg.Managers = 4
		if chaos {
			cfg.Churn = DefaultChurn()
			cfg.Faults = fault.Config{Seed: 7, Drop: 0.05, CrashRate: 0.2}
		}
		net, err := NewNetwork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rec := event.Enable(auditCapacity(cfg))
		defer event.Disable()
		obs.SetEnabled(true)
		defer obs.SetEnabled(false)
		if healthOn {
			s := health.Start(health.Config{Interval: time.Millisecond})
			defer func() {
				if s.Samples() == 0 {
					t.Error("health-enabled run took no samples")
				}
				s.Stop()
			}()
		}
		res := net.Run()
		events := rec.Drain()
		if len(events) == 0 {
			t.Fatal("run recorded no audit events")
		}
		// Strip wall-clock observations, drop the async health stream, and
		// renumber the deterministic events (their Seq shifts with health-event
		// interleaving; their payloads and order must not).
		det := events[:0]
		for i := range events {
			if events[i].Health != nil {
				continue
			}
			if c := events[i].Cycle; c != nil {
				c.QPS, c.WallSeconds = 0, 0
				c.Phases = nil
			}
			if m := events[i].Manager; m != nil {
				m.Seconds = 0
			}
			events[i].Seq = uint64(len(det) + 1)
			det = append(det, events[i])
		}
		dir := t.TempDir()
		if err := audit.WriteDir(dir, net.GroundTruth(), det); err != nil {
			t.Fatal(err)
		}
		return outcome{res: res, report: audit.Score(net.GroundTruth(), det), dir: dir}
	}
	for _, model := range []CollusionModel{PCM, MCM, MMM} {
		for _, chaos := range []bool{false, true} {
			name := model.String()
			if chaos {
				name += "-chaos"
			}
			t.Run(name, func(t *testing.T) {
				ref := run(t, model, chaos, false)
				got := run(t, model, chaos, true)
				if !reflect.DeepEqual(got.res.FinalReputations, ref.res.FinalReputations) {
					t.Fatal("final reputations diverge between health on and off")
				}
				if !reflect.DeepEqual(got.res.History, ref.res.History) {
					t.Fatal("reputation history diverges between health on and off")
				}
				if !reflect.DeepEqual(got.report, ref.report) {
					t.Fatalf("detection report diverges:\nhealth on:  %+v\nhealth off: %+v", got.report, ref.report)
				}
				// The deterministic audit streams must match byte for byte on
				// disk — the strongest form of "audit streams bit-identical".
				for _, file := range []string{
					audit.GroundTruthFile, audit.DecisionsFile, audit.CyclesFile, audit.ManagerFile,
				} {
					a, err := os.ReadFile(filepath.Join(ref.dir, file))
					if err != nil {
						t.Fatal(err)
					}
					b, err := os.ReadFile(filepath.Join(got.dir, file))
					if err != nil {
						t.Fatal(err)
					}
					if string(a) != string(b) {
						t.Fatalf("audit stream %s diverges between health on and off", file)
					}
				}
			})
		}
	}
}
