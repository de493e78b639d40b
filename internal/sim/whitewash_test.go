package sim

import (
	"testing"

	"socialtrust/internal/socialgraph"
)

func TestWhitewashResetsIdentity(t *testing.T) {
	cfg := smallConfig(PCM, EngineEBay, 0.2, false)
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id := cfg.ColluderIDs()[0]
	// Give the colluder some engine and graph state.
	net.record(id, id+1, 1, 0, 0)
	net.record(id+2, id, -1, 0, 0)
	net.flushRatings()
	net.Overlay.EndInterval()
	if net.Graph.Degree(socialgraph.NodeID(id)) == 0 {
		t.Fatal("precondition: colluder should have friends")
	}

	net.whitewash(id)

	if got := net.Engine.Reputation(id); got != 0 {
		t.Fatalf("reputation after whitewash = %v, want 0", got)
	}
	if got := net.Tracker.Requests(id); got != 0 {
		t.Fatalf("tracker after whitewash = %v, want 0", got)
	}
	// New identity has fresh friendships and its collusion tie back.
	if net.Graph.Degree(socialgraph.NodeID(id)) == 0 {
		t.Fatal("whitewashed node should rebuild friendships")
	}
	partnered := false
	for _, e := range net.colludeEdges {
		if (e.From == id || e.To == id) &&
			net.Graph.Adjacent(socialgraph.NodeID(e.From), socialgraph.NodeID(e.To)) {
			partnered = true
		}
	}
	if !partnered {
		t.Fatal("whitewashed colluder lost its collusion tie")
	}
}

func TestWhitewashRunCountsResets(t *testing.T) {
	cfg := smallConfig(PCM, EngineEBay, 0.2, false)
	cfg.WhitewashThreshold = 0.001
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Whitewashes == 0 {
		t.Fatal("suppressed low-QoS colluders should whitewash at least once")
	}
}

func TestNoWhitewashWithoutConfig(t *testing.T) {
	cfg := smallConfig(PCM, EngineEBay, 0.2, false)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Whitewashes != 0 {
		t.Fatalf("whitewashes = %d without configuration", res.Whitewashes)
	}
}

func TestWhitewashWithOscillationRestartsHoneymoon(t *testing.T) {
	cfg := smallConfig(PCM, EngineEBay, 0.2, false)
	cfg.OscillationCycle = 2
	cfg.WhitewashThreshold = 0.001
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net.Run()
	// At least one colluder should currently be in a honeymoon (recently
	// whitewashed) or have defected; either way the machinery must have
	// set QoS to one of the two levels.
	for _, id := range cfg.ColluderIDs() {
		g := net.Nodes[id].Good
		if g != 0.2 && g != 0.95 {
			t.Fatalf("colluder %d QoS %v, want 0.2 or 0.95", id, g)
		}
	}
}

func TestWhitewashDeterministic(t *testing.T) {
	run := func() (int, []float64) {
		cfg := smallConfig(PCM, EngineEBay, 0.2, false)
		cfg.WhitewashThreshold = 0.001
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Whitewashes, res.FinalReputations
	}
	w1, r1 := run()
	w2, r2 := run()
	if w1 != w2 {
		t.Fatalf("whitewash counts differ: %d vs %d", w1, w2)
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("reputations diverged at %d", i)
		}
	}
}
