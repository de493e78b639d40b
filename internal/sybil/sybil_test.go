package sybil

import (
	"testing"

	"socialtrust/internal/socialgraph"
	"socialtrust/internal/xrand"
)

// attackGraph builds an honest well-mixed region of nHonest nodes plus a
// Sybil cluster of nSybil fabricated identities attached through
// attackEdges edges. Returns the graph; honest IDs are [0,nHonest), Sybil
// IDs are [nHonest, nHonest+nSybil).
func attackGraph(nHonest, nSybil, attackEdges int, seed uint64) *socialgraph.Graph {
	g := socialgraph.New(nHonest + nSybil)
	rng := xrand.New(seed)
	rel := socialgraph.Relationship{Kind: socialgraph.Friendship}
	// Honest region: ring + random chords → fast mixing.
	for i := 0; i < nHonest; i++ {
		g.AddRelationship(socialgraph.NodeID(i), socialgraph.NodeID((i+1)%nHonest), rel)
		for k := 0; k < 3; k++ {
			j := rng.Intn(nHonest)
			if j != i && !g.Adjacent(socialgraph.NodeID(i), socialgraph.NodeID(j)) {
				g.AddRelationship(socialgraph.NodeID(i), socialgraph.NodeID(j), rel)
			}
		}
	}
	// Sybil cluster: dense internal structure.
	for s := 0; s < nSybil; s++ {
		id := nHonest + s
		for k := 0; k < 3; k++ {
			j := nHonest + rng.Intn(nSybil)
			if j != id && !g.Adjacent(socialgraph.NodeID(id), socialgraph.NodeID(j)) {
				g.AddRelationship(socialgraph.NodeID(id), socialgraph.NodeID(j), rel)
			}
		}
	}
	// Few attack edges bridging the regions.
	for a := 0; a < attackEdges; a++ {
		h := rng.Intn(nHonest)
		s := nHonest + rng.Intn(nSybil)
		if !g.Adjacent(socialgraph.NodeID(h), socialgraph.NodeID(s)) {
			g.AddRelationship(socialgraph.NodeID(h), socialgraph.NodeID(s), rel)
		}
	}
	return g
}

func seeds() []socialgraph.NodeID { return []socialgraph.NodeID{0, 10, 20, 30} }

func TestNewPanicsWithoutGraph(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(nil, Config{})
}

func TestHonestNodesScoreHigh(t *testing.T) {
	g := attackGraph(100, 30, 2, 1)
	d := New(g, Config{Seed: 7})
	for _, id := range []socialgraph.NodeID{5, 42, 77, 99} {
		if score := d.Score(seeds(), id); score < 0.6 {
			t.Errorf("honest node %d score %v, want high", id, score)
		}
	}
}

func TestSybilNodesScoreLow(t *testing.T) {
	g := attackGraph(100, 30, 2, 1)
	d := New(g, Config{Seed: 7})
	for _, id := range []socialgraph.NodeID{105, 115, 125} {
		if score := d.Score(seeds(), id); score > 0.35 {
			t.Errorf("sybil node %d score %v, want low", id, score)
		}
	}
}

func TestSuspectsFindSybilRegion(t *testing.T) {
	g := attackGraph(100, 30, 2, 1)
	d := New(g, Config{Seed: 7})
	suspects := d.Suspects(seeds())
	flagged := map[socialgraph.NodeID]bool{}
	for _, s := range suspects {
		flagged[s] = true
	}
	caught := 0
	for id := 100; id < 130; id++ {
		if flagged[socialgraph.NodeID(id)] {
			caught++
		}
	}
	if caught < 24 { // ≥80% of the Sybil region
		t.Errorf("caught only %d/30 sybils", caught)
	}
	falsePositives := 0
	for id := 0; id < 100; id++ {
		if flagged[socialgraph.NodeID(id)] {
			falsePositives++
		}
	}
	if falsePositives > 10 {
		t.Errorf("%d/100 honest nodes falsely flagged", falsePositives)
	}
}

func TestManyAttackEdgesBlurDetection(t *testing.T) {
	// With a large cut the Sybil region genuinely mixes with the honest
	// region — the schemes' documented limitation. Scores must rise.
	few := New(attackGraph(100, 30, 2, 1), Config{Seed: 7})
	many := New(attackGraph(100, 30, 60, 1), Config{Seed: 7})
	sybilID := socialgraph.NodeID(110)
	if many.Score(seeds(), sybilID) <= few.Score(seeds(), sybilID) {
		t.Errorf("more attack edges should raise the sybil score: few=%v many=%v",
			few.Score(seeds(), sybilID), many.Score(seeds(), sybilID))
	}
}

func TestScoreDeterministic(t *testing.T) {
	g := attackGraph(60, 10, 2, 3)
	d := New(g, Config{Seed: 9})
	a := d.Score(seeds(), 45)
	b := d.Score(seeds(), 45)
	if a != b {
		t.Fatalf("Score not deterministic: %v vs %v", a, b)
	}
}

func TestScoreNoSeeds(t *testing.T) {
	g := attackGraph(20, 5, 1, 1)
	d := New(g, Config{Seed: 1})
	if s := d.Score(nil, 3); s != 0 {
		t.Fatalf("no-seed score = %v", s)
	}
}

func TestGatewaySybilLimitation(t *testing.T) {
	// Documented limitation of walk-intersection schemes (and the reason
	// the paper pairs them with SocialTrust rather than replacing it): a
	// Sybil identity wired directly to several honest hubs mixes with the
	// honest region and evades detection. The B-pattern filter, which
	// keys on rating behavior rather than graph position, still covers
	// this case.
	g := attackGraph(100, 30, 2, 1)
	rel := socialgraph.Relationship{Kind: socialgraph.Friendship}
	gateway := socialgraph.NodeID(115)
	for _, hub := range []socialgraph.NodeID{3, 40, 80} {
		g.AddRelationship(gateway, hub, rel)
	}
	d := New(g, Config{Seed: 7})
	score := d.Score(seeds(), gateway)
	if score < 0.3 {
		t.Skipf("gateway unexpectedly detected (score %v) — stronger than documented", score)
	}
	// The point of this test is executable documentation: the score is
	// meaningfully higher than the buried cluster's.
	buried := d.Score(seeds(), 127)
	if score <= buried {
		t.Errorf("gateway score %v should exceed buried sybil score %v", score, buried)
	}
}
