package socialgraph

import (
	"math"
	"sync"
	"testing"

	"socialtrust/internal/xrand"
)

// TestEpochBumpedByEveryMutator pins the cache-invalidation contract: each
// mutator advances the epoch, reads never do.
func TestEpochBumpedByEveryMutator(t *testing.T) {
	g := New(4)
	e0 := g.Epoch()

	g.AddRelationship(0, 1, Relationship{Kind: Friendship})
	if g.Epoch() <= e0 {
		t.Fatal("AddRelationship did not bump the epoch")
	}
	e1 := g.Epoch()

	g.RecordInteraction(0, 1, 1)
	if g.Epoch() <= e1 {
		t.Fatal("RecordInteraction did not bump the epoch")
	}
	e2 := g.Epoch()

	g.RemoveNodeEdges(1)
	if g.Epoch() <= e2 {
		t.Fatal("RemoveNodeEdges did not bump the epoch")
	}
	e3 := g.Epoch()

	g.ResetInteractions()
	if g.Epoch() <= e3 {
		t.Fatal("ResetInteractions did not bump the epoch")
	}
	e4 := g.Epoch()

	// Pure reads leave the epoch unchanged.
	g.AddRelationship(0, 2, Relationship{Kind: Friendship})
	e5 := g.Epoch()
	_ = g.Adjacent(0, 2)
	_ = g.Friends(0)
	_ = g.Degree(0)
	_ = g.CommonFriends(0, 2)
	_ = g.Closeness(0, 2, DefaultClosenessParams())
	_ = g.ClosenessFrom(0, []NodeID{1, 2, 3}, DefaultClosenessParams())
	_ = g.Distance(0, 3, 4)
	_ = g.InteractionFrequency(0, 1)
	_ = g.TotalInteractionsFrom(0)
	if g.Epoch() != e5 {
		t.Fatalf("read path moved the epoch: %d -> %d", e5, g.Epoch())
	}
	if e4 >= e5 {
		t.Fatal("epoch is not monotonically increasing")
	}
}

// TestClosenessFromMatchesPerPair asserts the batched single-source path is
// bit-identical to per-pair Closeness on a quiescent graph, across all three
// branch kinds (adjacent, common-friend, shortest-path) and both the plain
// and weighted (Equation 10) forms. The sparse cases put many pairs exactly
// at the hop cutoff, where the batched path resolves the last hop from the
// ratee's side, and many past it.
func TestClosenessFromMatchesPerPair(t *testing.T) {
	sparse := sparseGraph(300, 3)
	for hops := 1; hops <= 4; hops++ {
		at, past := 0, 0
		for i := 0; i < 300; i += 5 {
			dist := hopDistances(sparse, NodeID(i))
			ratees := make([]NodeID, 0, 300)
			for j := range dist {
				if dist[j] >= 3 || dist[j] < 0 { // no common friend: the path branch
					ratees = append(ratees, NodeID(j))
					switch {
					case dist[j] == hops:
						at++
					case dist[j] > hops || dist[j] < 0:
						past++
					}
				}
			}
			for _, weighted := range []bool{false, true} {
				p := ClosenessParams{Weighted: weighted, Lambda: 0.75, MaxPathHops: hops}
				got := sparse.ClosenessFrom(NodeID(i), ratees, p)
				for idx, j := range ratees {
					if want := sparse.Closeness(NodeID(i), j, p); got[idx] != want {
						t.Fatalf("hops=%d weighted=%v ClosenessFrom(%d)[%d→%d] = %v, per-pair Closeness = %v (distance %d)",
							hops, weighted, i, i, j, got[idx], want, dist[j])
					}
				}
			}
		}
		if past == 0 || (hops >= 3 && at == 0) {
			t.Fatalf("hops=%d: %d path-branch pairs at the cutoff and %d past it; the graph no longer exercises the cutoff", hops, at, past)
		}
		t.Logf("hops=%d: %d path-branch pairs at the cutoff, %d past it", hops, at, past)
	}
	for _, weighted := range []bool{false, true} {
		g := randomGraph(200, 3)
		p := DefaultClosenessParams()
		p.Weighted = weighted
		for i := 0; i < 200; i += 7 {
			ratees := make([]NodeID, 0, 64)
			for j := 0; j < 200; j += 3 {
				ratees = append(ratees, NodeID(j))
			}
			got := g.ClosenessFrom(NodeID(i), ratees, p)
			for idx, j := range ratees {
				want := g.Closeness(NodeID(i), j, p)
				if got[idx] != want { // bit-identical, no tolerance
					t.Fatalf("weighted=%v ClosenessFrom(%d)[%d→%d] = %v, per-pair Closeness = %v (diff %g)",
						weighted, i, i, j, got[idx], want, math.Abs(got[idx]-want))
				}
			}
		}
	}
}

// randomGraph builds a connected pseudo-random graph with interactions,
// sparse enough that all three closeness branches are exercised.
func randomGraph(n, extraDeg int) *Graph {
	g := New(n)
	rng := xrand.New(42)
	for i := 0; i < n; i++ {
		g.AddRelationship(NodeID(i), NodeID((i+1)%n), Relationship{Kind: Friendship})
		for k := 0; k < extraDeg; k++ {
			j := rng.Intn(n)
			if j != i && !g.Adjacent(NodeID(i), NodeID(j)) {
				kind := RelationshipKind(rng.Intn(int(numRelationshipKinds)))
				g.AddRelationship(NodeID(i), NodeID(j), Relationship{Kind: kind})
			}
		}
		for k := 0; k < 3; k++ {
			g.RecordInteraction(NodeID(i), NodeID(rng.Intn(n)), float64(rng.Intn(5)+1))
		}
	}
	return g
}

// sparseGraph builds an n-node pseudo-random graph in which every node adds
// deg random friendships (some doubled, of mixed kinds). With no ring to
// shorten distances, many pairs sit three or more hops apart. A quarter of
// the nodes record no interactions and the rest at most three, so many
// adjacent terms are nonzero and a path's minimum depends on which path the
// BFS tree took (randomGraph's interactions zero out most of them).
func sparseGraph(n, deg int) *Graph {
	g := New(n)
	rng := xrand.New(7)
	for i := 0; i < n; i++ {
		for k := 0; k < deg; k++ {
			j := NodeID(rng.Intn(n))
			if j == NodeID(i) {
				continue
			}
			kind := RelationshipKind(rng.Intn(int(numRelationshipKinds)))
			g.AddRelationship(NodeID(i), j, Relationship{Kind: kind})
			if rng.Intn(4) == 0 {
				g.AddRelationship(NodeID(i), j, Relationship{Kind: Friendship})
			}
		}
		for k := rng.Intn(4); k > 0; k-- {
			g.RecordInteraction(NodeID(i), NodeID(rng.Intn(n)), float64(rng.Intn(5)+1))
		}
	}
	return g
}

// hopDistances returns the friendship distance from src to every node, −1
// for unreachable ones.
func hopDistances(g *Graph, src NodeID) []int {
	dist := make([]int, g.NumNodes())
	for x := range dist {
		dist[x] = -1
	}
	dist[src] = 0
	for queue := []NodeID{src}; len(queue) > 0; queue = queue[1:] {
		for _, v := range g.Friends(queue[0]) {
			if dist[v] < 0 {
				dist[v] = dist[queue[0]] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// TestConcurrentClosenessAndMutation hammers parallel closeness reads
// against topology and interaction mutation; run under -race it proves the
// RWMutex + striped-row locking discipline is sound.
func TestConcurrentClosenessAndMutation(t *testing.T) {
	const n = 80
	g := randomGraph(n, 2)
	p := DefaultClosenessParams()
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := xrand.New(seed)
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := NodeID(rng.Intn(n))
				j := NodeID(rng.Intn(n))
				_ = g.Closeness(i, j, p)
				_ = g.ClosenessFrom(i, []NodeID{j, NodeID((int(j) + 1) % n)}, p)
				_ = g.Epoch()
			}
		}(uint64(w + 1))
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := xrand.New(99)
		for k := 0; k < 500; k++ {
			i := NodeID(rng.Intn(n))
			j := NodeID(rng.Intn(n))
			if i != j {
				g.AddRelationship(i, j, Relationship{Kind: Friendship})
			}
			g.RecordInteraction(i, j, 1)
			if k%100 == 99 {
				g.RemoveNodeEdges(NodeID(rng.Intn(n)))
			}
		}
		close(stop)
	}()
	wg.Wait()
}
