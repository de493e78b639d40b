// Package sybil implements a SybilGuard/SybilLimit-style detector over the
// social graph. The paper's related-work section points at these schemes as
// complements to SocialTrust: colluders can fabricate Sybil identities to
// manufacture social structure (fake common friends raise the Equation 3
// closeness of a distant pair into the "normal" band), and a Sybil defense
// flags the fabricated region (Suspects) before SocialTrust reads the graph.
//
// The detector uses the schemes' core insight: Sybil regions attach to the
// honest region through disproportionately few "attack" edges, so short
// random walks started from honest seeds rarely end inside a Sybil region,
// while walks started anywhere in the honest region mix quickly. A node is
// scored by the sampled intersection rate between its walk endpoints and
// the seeds' walk endpoints; genuine nodes intersect heavily, Sybils barely.
package sybil

import (
	"fmt"

	"socialtrust/internal/socialgraph"
	"socialtrust/internal/xrand"
)

// Config parameterizes the detector.
type Config struct {
	// WalkLength is the random-route length. Short routes discriminate
	// best: long walks give Sybil-region walks too many chances to escape
	// through the attack edges, while the honest region already mixes in a
	// few steps. Default 4.
	WalkLength int
	// Walks is the number of routes sampled per node. Default 50.
	Walks int
	// Threshold is the minimum intersection score for acceptance as
	// honest. Default 0.5 — honest nodes in a mixing region score near 1,
	// Sybil regions behind a small cut score near their escape
	// probability.
	Threshold float64
	// Seed drives the deterministic walk randomness.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.WalkLength == 0 {
		c.WalkLength = 4
	}
	if c.Walks == 0 {
		c.Walks = 50
	}
	if c.Threshold == 0 {
		c.Threshold = 0.5
	}
	return c
}

// Detector runs random-route intersection tests over a frozen social graph.
type Detector struct {
	cfg Config
	g   *socialgraph.Graph
}

// New creates a detector over g. The graph must not change while the
// detector is in use.
func New(g *socialgraph.Graph, cfg Config) *Detector {
	if g == nil {
		panic("sybil: graph is required")
	}
	return &Detector{cfg: cfg.withDefaults(), g: g}
}

// endpoints samples the detector's walk endpoints from the given node.
func (d *Detector) endpoints(from socialgraph.NodeID, rng *xrand.Stream) map[socialgraph.NodeID]bool {
	out := make(map[socialgraph.NodeID]bool, d.cfg.Walks)
	for w := 0; w < d.cfg.Walks; w++ {
		cur := from
		for step := 0; step < d.cfg.WalkLength; step++ {
			friends := d.g.Friends(cur)
			if len(friends) == 0 {
				break
			}
			cur = friends[rng.Intn(len(friends))]
		}
		out[cur] = true
	}
	return out
}

// Score returns the intersection rate between node's walk endpoints and the
// pooled endpoints of the trusted seeds, in [0,1]. Honest nodes in a
// well-mixed region score high; nodes behind a small cut score near zero.
func (d *Detector) Score(seeds []socialgraph.NodeID, node socialgraph.NodeID) float64 {
	if len(seeds) == 0 {
		return 0
	}
	root := xrand.New(d.cfg.Seed)
	seedEnds := make(map[socialgraph.NodeID]bool)
	for i, s := range seeds {
		for e := range d.endpoints(s, root.Split(uint64(i))) {
			seedEnds[e] = true
		}
	}
	nodeEnds := d.endpoints(node, root.SplitString(fmt.Sprintf("node-%d", node)))
	if len(nodeEnds) == 0 {
		return 0
	}
	hits := 0
	for e := range nodeEnds {
		if seedEnds[e] {
			hits++
		}
	}
	return float64(hits) / float64(len(nodeEnds))
}

// Suspects returns every node (other than the seeds themselves) whose score
// falls below the configured threshold, in ascending ID order.
func (d *Detector) Suspects(seeds []socialgraph.NodeID) []socialgraph.NodeID {
	isSeed := make(map[socialgraph.NodeID]bool, len(seeds))
	for _, s := range seeds {
		isSeed[s] = true
	}
	var out []socialgraph.NodeID
	for id := socialgraph.NodeID(0); int(id) < d.g.NumNodes(); id++ {
		if isSeed[id] || d.g.Degree(id) == 0 {
			continue
		}
		if d.Score(seeds, id) < d.cfg.Threshold {
			out = append(out, id)
		}
	}
	return out
}
