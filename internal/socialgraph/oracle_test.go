package socialgraph

import (
	"math"
	"testing"
)

// oracleGraph is a 10-node graph with no interactions recorded, so every
// adjacent term of Equation 2 is m(u,v)/|S_u|:
//
//	0 ─ 1 ═ 7 ═ 5 ═ 6 ─ 8      (═ carries two relationships)
//	│   │       │
//	│   4       │              9 isolated
//	│   │       │
//	└── 2 ───── 3
//
// Edges: 0-1, 0-2, 1-4, 2-4, 1-7 (m=2), 2-3, 7-5 (m=2), 3-5, 5-6 (m=2), 6-8.
// Node 5 is three hops from 0 along two shortest paths, 0-1-7-5 (minimum
// 1/2) and 0-2-3-5 (minimum 1/3). The ID-order BFS from 0 queues level 2 as
// [4, 7, 3] — 1's neighbours before 2's — so it reaches 5 first from 7, not
// from the lower-numbered 3, and Ωc(0,5) is 1/2.
func oracleGraph() *Graph {
	g := New(10)
	for _, e := range []struct {
		u, v NodeID
		m    int
	}{
		{0, 1, 1}, {0, 2, 1}, {1, 4, 1}, {2, 4, 1}, {1, 7, 2},
		{2, 3, 1}, {7, 5, 2}, {3, 5, 1}, {5, 6, 2}, {6, 8, 1},
	} {
		for k := 0; k < e.m; k++ {
			g.AddRelationship(e.u, e.v, Relationship{Kind: Friendship})
		}
	}
	return g
}

// TestClosenessPathOracle checks Ωc(0, ·) on oracleGraph against values
// worked out by hand from Equations 2–4, through the per-pair and the
// batched entry points, at three hop cutoffs. Degrees: |S_0| = 2, |S_1| = 3,
// |S_2| = 3, |S_5| = 3, |S_7| = 2.
func TestClosenessPathOracle(t *testing.T) {
	// Cutoff-independent values. Adjacent (Eq. 2): Ωc(0,1) = Ωc(0,2) = 1/2.
	// Common friends (Eq. 3): Ωc(0,3) = (Ωc(0,2)+Ωc(2,3))/2 = (1/2+1/3)/2;
	// Ωc(0,4) sums that term over common friends 1 and 2; Ωc(0,7) =
	// (Ωc(0,1)+Ωc(1,7))/2 = (1/2+2/3)/2.
	near := map[NodeID]float64{
		0: 0,
		1: 1.0 / 2,
		2: 1.0 / 2,
		3: 5.0 / 12,
		4: 5.0 / 6,
		7: 7.0 / 12,
		9: 0, // unreachable
	}
	// Path branch (Eq. 4), min along the BFS tree path:
	//   5 (3 hops): min(Ωc(0,1), Ωc(1,7), Ωc(7,5)) = min(1/2, 2/3, 1) = 1/2
	//   6 (4 hops): the same path plus Ωc(5,6) = 2/3, so 1/2
	//   8 (5 hops): past every cutoff tested, 0
	far := map[int]map[NodeID]float64{
		2: {5: 0, 6: 0, 8: 0},
		3: {5: 1.0 / 2, 6: 0, 8: 0},
		4: {5: 1.0 / 2, 6: 1.0 / 2, 8: 0},
	}
	g := oracleGraph()
	ratees := []NodeID{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	for hops := 2; hops <= 4; hops++ {
		p := ClosenessParams{MaxPathHops: hops}
		want := make([]float64, len(ratees))
		for idx, j := range ratees {
			v, ok := near[j]
			if !ok {
				v = far[hops][j]
			}
			want[idx] = v
		}
		batch := g.ClosenessFrom(0, ratees, p)
		for idx, j := range ratees {
			if got := g.Closeness(0, j, p); !approx(got, want[idx]) {
				t.Errorf("hops=%d Closeness(0,%d) = %v, want %v", hops, j, got, want[idx])
			}
			if !approx(batch[idx], want[idx]) {
				t.Errorf("hops=%d ClosenessFrom(0)[%d] = %v, want %v", hops, j, batch[idx], want[idx])
			}
		}
	}
}

func approx(a, b float64) bool { return math.Abs(a-b) <= 1e-12 }
