package sim

import (
	"reflect"
	"testing"

	"socialtrust/internal/audit"
	"socialtrust/internal/core"
	"socialtrust/internal/interest"
	"socialtrust/internal/obs/event"
	"socialtrust/internal/rating"
	"socialtrust/internal/reputation/eigentrust"
	"socialtrust/internal/xrand"
)

// TestAdjustWarmCacheBitIdentical pins the central correctness contract of
// the signal cache: on a quiescent graph, an Adjust pass served from the
// epoch-versioned cache must be bit-identical — adjusted snapshot and report
// alike — to the same pass computed from scratch by a fresh filter instance.
// The traffic comes from real collusion wiring so all three models (PCM,
// MCM, MMM) exercise the cache with their distinctive pair structure.
func TestAdjustWarmCacheBitIdentical(t *testing.T) {
	for _, model := range []CollusionModel{PCM, MCM, MMM} {
		t.Run(model.String(), func(t *testing.T) {
			cfg := smallConfig(model, EngineEigenTrust, 0.4, true)
			n, err := NewNetwork(cfg)
			if err != nil {
				t.Fatal(err)
			}

			// One interval of mixed traffic: the model's collusion spam
			// plus random honest ratings so normal pairs populate the
			// baseline distribution.
			rng := xrand.New(7)
			for cycle := 0; cycle < cfg.QueryCycles; cycle++ {
				n.collude(cycle)
				for k := 0; k < 40; k++ {
					i := rng.Intn(cfg.NumNodes)
					j := rng.Intn(cfg.NumNodes)
					if i == j {
						continue
					}
					n.record(i, j, 1, cycle, interest.Category(rng.Intn(4)))
				}
			}
			l := rating.NewLedger(cfg.NumNodes)
			if errs := l.AddBatch(n.pending); errs != nil {
				t.Fatal(errs)
			}
			snap := l.EndInterval()
			if len(snap.Ratings) == 0 {
				t.Fatal("interval produced no ratings")
			}

			// Two filters over the same graph/sets/tracker, each with its
			// own (identically configured, untouched) inner engine.
			mk := func() *core.SocialTrust {
				fc := cfg.Filter
				fc.NumNodes = cfg.NumNodes
				fc.Workers = cfg.Workers
				inner := eigentrust.New(eigentrust.Config{
					NumNodes:       cfg.NumNodes,
					Pretrusted:     cfg.PretrustedIDs(),
					PretrustWeight: cfg.PretrustMix,
					Workers:        cfg.Workers,
				})
				return core.New(fc, n.Graph, n.Sets, n.Tracker, inner)
			}

			cached := mk()
			coldOut, coldRep := cached.Adjust(snap) // cold: populates the cache
			warmOut, warmRep := cached.Adjust(snap) // warm: served from the cache

			fresh := mk()
			directOut, directRep := fresh.Adjust(snap) // no cache at all

			if !reflect.DeepEqual(coldOut, directOut) || !reflect.DeepEqual(coldRep, directRep) {
				t.Fatal("cold cache-populating pass diverges from the direct pass")
			}
			if !reflect.DeepEqual(warmOut, directOut) {
				t.Fatal("warm cache-served snapshot diverges from the direct pass")
			}
			if !reflect.DeepEqual(warmRep, directRep) {
				t.Fatalf("warm cache-served report diverges from the direct pass:\nwarm:   %+v\ndirect: %+v", warmRep, directRep)
			}

			// A graph mutation invalidates the cache; the next pass must
			// again agree with a from-scratch instance on the new graph.
			n.Graph.RecordInteraction(0, 1, 1)
			invOut, invRep := cached.Adjust(snap)
			after := mk()
			afterOut, afterRep := after.Adjust(snap)
			if !reflect.DeepEqual(invOut, afterOut) || !reflect.DeepEqual(invRep, afterRep) {
				t.Fatal("post-invalidation pass diverges from a fresh instance on the mutated graph")
			}
		})
	}
}

// TestFullSimWorkerCountBitIdentity is the scale-out acceptance for the whole
// pipeline: for each collusion model, a complete managed run (overlay batch
// ingest, SocialTrust adjust, EigenTrust iteration, flight recorder on) with
// Workers=1 must be byte-identical to Workers=8 — reputations, per-cycle
// history, the ground-truth detection report, and the full audit event
// stream (wall-clock fields excluded: they are the only nondeterministic
// outputs by design).
func TestFullSimWorkerCountBitIdentity(t *testing.T) {
	type outcome struct {
		res    *Result
		report audit.Report
		events []event.Event
	}
	run := func(t *testing.T, model CollusionModel, workers int) outcome {
		cfg := smallConfig(model, EngineEigenTrust, 0.4, true)
		cfg.Workers = workers
		cfg.Managers = 4
		net, err := NewNetwork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rec := event.Enable(auditCapacity(cfg))
		defer event.Disable()
		res := net.Run()
		events := rec.Drain()
		if len(events) == 0 {
			t.Fatal("run recorded no audit events")
		}
		for i := range events {
			if c := events[i].Cycle; c != nil {
				c.QPS, c.WallSeconds = 0, 0
			}
			if m := events[i].Manager; m != nil {
				m.Seconds = 0
			}
		}
		return outcome{res: res, report: audit.Score(net.GroundTruth(), events), events: events}
	}
	for _, model := range []CollusionModel{PCM, MCM, MMM} {
		t.Run(model.String(), func(t *testing.T) {
			ref := run(t, model, 1)
			got := run(t, model, 8)
			if !reflect.DeepEqual(got.res.FinalReputations, ref.res.FinalReputations) {
				t.Fatal("final reputations diverge between Workers=1 and Workers=8")
			}
			if !reflect.DeepEqual(got.res.History, ref.res.History) {
				t.Fatal("reputation history diverges between Workers=1 and Workers=8")
			}
			if !reflect.DeepEqual(got.report, ref.report) {
				t.Fatalf("detection report diverges:\nworkers=8: %+v\nworkers=1: %+v", got.report, ref.report)
			}
			if !reflect.DeepEqual(got.events, ref.events) {
				t.Fatal("audit event streams diverge between Workers=1 and Workers=8")
			}
		})
	}
}
