package socialgraph

import (
	"runtime"
	"testing"

	"socialtrust/internal/xrand"
)

// benchGraph builds a 500-node small-world graph with interactions.
func benchGraph() *Graph {
	g := New(500)
	rng := xrand.New(1)
	for i := 0; i < 500; i++ {
		g.AddRelationship(NodeID(i), NodeID((i+1)%500), Relationship{Kind: Friendship})
		for k := 0; k < 4; k++ {
			j := rng.Intn(500)
			if j != i && !g.Adjacent(NodeID(i), NodeID(j)) {
				g.AddRelationship(NodeID(i), NodeID(j), Relationship{Kind: Friendship})
			}
		}
		g.RecordInteraction(NodeID(i), NodeID((i+1)%500), float64(rng.Intn(5)+1))
	}
	return g
}

func BenchmarkClosenessAdjacent(b *testing.B) {
	g := benchGraph()
	p := DefaultClosenessParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Closeness(NodeID(i%500), NodeID((i+1)%500), p)
	}
}

func BenchmarkClosenessNonAdjacent(b *testing.B) {
	g := benchGraph()
	p := DefaultClosenessParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Closeness(NodeID(i%500), NodeID((i+250)%500), p)
	}
}

func BenchmarkShortestPath(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ShortestPath(NodeID(i%500), NodeID((i+137)%500), 6)
	}
}

// BenchmarkClosenessFrom measures the batched single-source path: one rater
// against 64 spread-out ratees, sharing one BFS tree and memoized adjacent
// closenesses across the whole batch.
func BenchmarkClosenessFrom(b *testing.B) {
	g := benchGraph()
	p := DefaultClosenessParams()
	ratees := make([]NodeID, 64)
	for k := range ratees {
		ratees[k] = NodeID((k*7 + 3) % 500)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ClosenessFrom(NodeID(i%500), ratees, p)
	}
}

// BenchmarkClosenessPerPair is the same workload as BenchmarkClosenessFrom
// issued as 64 independent per-pair queries — the before/after comparison
// for the batched path.
func BenchmarkClosenessPerPair(b *testing.B) {
	g := benchGraph()
	p := DefaultClosenessParams()
	ratees := make([]NodeID, 64)
	for k := range ratees {
		ratees[k] = NodeID((k*7 + 3) % 500)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, j := range ratees {
			g.Closeness(NodeID(i%500), j, p)
		}
	}
}

// graph50k builds a 50k-node graph in which every node adds 6 random
// friendships and records 2 interactions, and picks node 0 as the rater
// with 16 ratees that take the path branch of Equation 4 at 3 hops: half
// exactly 3 hops away, half further.
func graph50k() (g *Graph, rater NodeID, ratees []NodeID) {
	const n = 50_000
	g = New(n)
	rng := xrand.New(5)
	for i := 0; i < n; i++ {
		for k := 0; k < 6; k++ {
			if j := NodeID(rng.Intn(n)); j != NodeID(i) {
				g.AddRelationship(NodeID(i), j, Relationship{Kind: Friendship})
			}
		}
		for k := 0; k < 2; k++ {
			g.RecordInteraction(NodeID(i), NodeID(rng.Intn(n)), float64(rng.Intn(5)+1))
		}
	}
	dist := hopDistances(g, rater)
	var at, past []NodeID
	for j, d := range dist {
		switch {
		case d == 3 && len(at) < 8:
			at = append(at, NodeID(j))
		case d > 3 && len(past) < 8:
			past = append(past, NodeID(j))
		}
	}
	return g, rater, append(at, past...)
}

// TestClosenessFromAllocations pins the batched kernel's memory contract: a
// call that builds the BFS tree on a 50k-node graph allocates a small
// constant number of objects, and far fewer bytes than one NumNodes-slot
// array, because its scratch is pooled and reset in proportion to what it
// visited.
func TestClosenessFromAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	g, rater, ratees := graph50k()
	p := ClosenessParams{MaxPathHops: 3}
	g.ClosenessFrom(rater, ratees, p) // size the pooled scratch
	allocs := testing.AllocsPerRun(100, func() { g.ClosenessFrom(rater, ratees, p) })
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 0; k < runs; k++ {
		g.ClosenessFrom(rater, ratees, p)
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("ClosenessFrom, %d ratees on %d nodes: %.0f allocs, %d B per call", len(ratees), g.NumNodes(), allocs, bytes)
	if allocs > 2 {
		t.Errorf("ClosenessFrom allocates %.0f objects per call, want at most 2", allocs)
	}
	if bytes > uint64(g.NumNodes())/10 {
		t.Errorf("ClosenessFrom allocates %d B per call, want under %d (one int32 per node is %d B)",
			bytes, g.NumNodes()/10, 4*g.NumNodes())
	}
}

// BenchmarkClosenessFrom50k is BenchmarkClosenessFrom at deployment scale:
// 16 path-branch ratees on a 50k-node graph at 3 hops, where a per-call
// NumNodes-slot array would dominate the cost.
func BenchmarkClosenessFrom50k(b *testing.B) {
	g, rater, ratees := graph50k()
	p := ClosenessParams{MaxPathHops: 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		closenessSink = g.ClosenessFrom(rater, ratees, p)
	}
}

var closenessSink []float64
