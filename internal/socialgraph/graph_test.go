package socialgraph

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s should panic", name)
		}
	}()
	f()
}

func TestNewAndValidate(t *testing.T) {
	g := New(3)
	if g.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d", g.NumNodes())
	}
	mustPanic(t, "negative size", func() { New(-1) })
	mustPanic(t, "out of range", func() { g.Adjacent(0, 5) })
	mustPanic(t, "self edge", func() { g.AddRelationship(1, 1, Relationship{Kind: Friendship}) })
}

func TestAddRelationshipSymmetric(t *testing.T) {
	g := New(4)
	g.AddRelationship(0, 1, Relationship{Kind: Friendship})
	if !g.Adjacent(0, 1) || !g.Adjacent(1, 0) {
		t.Fatal("edge should be symmetric")
	}
	if g.Adjacent(0, 2) {
		t.Fatal("0 and 2 should not be adjacent")
	}
	if got := g.RelationshipCount(0, 1); got != 1 {
		t.Fatalf("m(0,1) = %d, want 1", got)
	}
	g.AddRelationship(0, 1, Relationship{Kind: Kinship})
	if got := g.RelationshipCount(1, 0); got != 2 {
		t.Fatalf("m(1,0) = %d, want 2", got)
	}
	if got := g.RelationshipCount(0, 3); got != 0 {
		t.Fatalf("m(0,3) = %d, want 0", got)
	}
}

func TestRelationshipsCopy(t *testing.T) {
	g := New(2)
	g.AddRelationship(0, 1, Relationship{Kind: Colleague})
	rels := g.Relationships(0, 1)
	if len(rels) != 1 || rels[0].Kind != Colleague {
		t.Fatalf("Relationships = %+v", rels)
	}
	rels[0].Kind = Kinship // mutating the copy must not affect the graph
	if g.Relationships(0, 1)[0].Kind != Colleague {
		t.Fatal("Relationships returned internal slice")
	}
	if g.Relationships(0, 1) == nil {
		t.Fatal("nil for existing edge")
	}
	if g.Relationships(1, 0) == nil {
		t.Fatal("reverse direction should see the same edge")
	}
}

func TestFriendsAndDegree(t *testing.T) {
	g := New(5)
	g.AddRelationship(2, 0, Relationship{Kind: Friendship})
	g.AddRelationship(2, 4, Relationship{Kind: Friendship})
	g.AddRelationship(2, 1, Relationship{Kind: Friendship})
	got := g.Friends(2)
	want := []NodeID{0, 1, 4}
	if len(got) != len(want) {
		t.Fatalf("Friends = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Friends = %v, want %v", got, want)
		}
	}
	if g.Degree(2) != 3 || g.Degree(3) != 0 {
		t.Fatalf("Degree(2)=%d Degree(3)=%d", g.Degree(2), g.Degree(3))
	}
}

func TestCommonFriends(t *testing.T) {
	g := New(6)
	// 0 and 1 share friends 2 and 3; 4 is only 0's friend.
	for _, j := range []NodeID{2, 3, 4} {
		g.AddRelationship(0, j, Relationship{Kind: Friendship})
	}
	for _, j := range []NodeID{2, 3, 5} {
		g.AddRelationship(1, j, Relationship{Kind: Friendship})
	}
	got := g.CommonFriends(0, 1)
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("CommonFriends = %v, want [2 3]", got)
	}
	if cf := g.CommonFriends(4, 5); len(cf) != 0 {
		t.Fatalf("CommonFriends(4,5) = %v, want empty", cf)
	}
}

func chain(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddRelationship(NodeID(i), NodeID(i+1), Relationship{Kind: Friendship})
	}
	return g
}

func TestDistanceAndShortestPath(t *testing.T) {
	g := chain(5) // 0-1-2-3-4
	if d := g.Distance(0, 4, 0); d != 4 {
		t.Fatalf("Distance(0,4) = %d, want 4", d)
	}
	if d := g.Distance(0, 0, 0); d != 0 {
		t.Fatalf("Distance(0,0) = %d, want 0", d)
	}
	if d := g.Distance(0, 4, 3); d != NoPath {
		t.Fatalf("Distance with cutoff 3 = %d, want NoPath", d)
	}
	if d := g.Distance(0, 4, 4); d != 4 {
		t.Fatalf("Distance with cutoff 4 = %d, want 4", d)
	}
	path := g.ShortestPath(0, 3, 0)
	want := []NodeID{0, 1, 2, 3}
	if len(path) != len(want) {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
}

func TestDistanceDisconnected(t *testing.T) {
	g := New(4)
	g.AddRelationship(0, 1, Relationship{Kind: Friendship})
	g.AddRelationship(2, 3, Relationship{Kind: Friendship})
	if d := g.Distance(0, 3, 0); d != NoPath {
		t.Fatalf("Distance across components = %d, want NoPath", d)
	}
	if p := g.ShortestPath(0, 3, 0); p != nil {
		t.Fatalf("ShortestPath across components = %v, want nil", p)
	}
}

func TestShortestPathPicksShorter(t *testing.T) {
	// 0-1-2 and 0-2 directly: shortest must be the direct hop.
	g := New(3)
	g.AddRelationship(0, 1, Relationship{Kind: Friendship})
	g.AddRelationship(1, 2, Relationship{Kind: Friendship})
	g.AddRelationship(0, 2, Relationship{Kind: Friendship})
	if d := g.Distance(0, 2, 0); d != 1 {
		t.Fatalf("Distance = %d, want 1", d)
	}
}

func TestInteractions(t *testing.T) {
	g := New(3)
	g.RecordInteraction(0, 1, 1)
	g.RecordInteraction(0, 1, 1)
	g.RecordInteraction(0, 2, 3)
	if f := g.InteractionFrequency(0, 1); f != 2 {
		t.Fatalf("f(0,1) = %v, want 2", f)
	}
	if f := g.InteractionFrequency(1, 0); f != 0 {
		t.Fatal("interactions must be directed")
	}
	if tot := g.TotalInteractionsFrom(0); tot != 5 {
		t.Fatalf("Σf(0,·) = %v, want 5", tot)
	}
	g.ResetInteractions()
	if tot := g.TotalInteractionsFrom(0); tot != 0 {
		t.Fatalf("after reset Σf = %v, want 0", tot)
	}
}

func TestConcurrentInteractionRecording(t *testing.T) {
	g := New(8)
	var wg sync.WaitGroup
	const perWorker = 1000
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(src NodeID) {
			defer wg.Done()
			for k := 0; k < perWorker; k++ {
				g.RecordInteraction(src, (src+1)%8, 1)
				g.RecordInteraction(0, 7, 1) // shared hot row
			}
		}(NodeID(w))
	}
	wg.Wait()
	if f := g.InteractionFrequency(0, 7); f != 8*perWorker {
		t.Fatalf("hot row count = %v, want %d", f, 8*perWorker)
	}
	if f := g.InteractionFrequency(3, 4); f != perWorker {
		t.Fatalf("f(3,4) = %v, want %d", f, perWorker)
	}
}

func TestRelationshipKindString(t *testing.T) {
	if Kinship.String() != "kinship" || Friendship.String() != "friendship" {
		t.Fatal("String() mismatch")
	}
	if RelationshipKind(99).String() == "" {
		t.Fatal("unknown kind should still stringify")
	}
}

func TestDefaultWeightOrdering(t *testing.T) {
	if !(Kinship.DefaultWeight() > Colleague.DefaultWeight() &&
		Colleague.DefaultWeight() > Classmate.DefaultWeight() &&
		Classmate.DefaultWeight() > Friendship.DefaultWeight()) {
		t.Fatal("default weights should decrease with social strength")
	}
}

// --- closeness ---

func TestAdjacentClosenessEquation2(t *testing.T) {
	g := New(4)
	g.AddRelationship(0, 1, Relationship{Kind: Friendship})
	g.AddRelationship(0, 1, Relationship{Kind: Colleague}) // m(0,1)=2
	g.AddRelationship(0, 2, Relationship{Kind: Friendship})
	g.RecordInteraction(0, 1, 6)
	g.RecordInteraction(0, 2, 4)
	p := DefaultClosenessParams()
	got := g.Closeness(0, 1, p)
	want := 2.0 * 6 / 10 // m·f/Σf
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("Ωc(0,1) = %v, want %v", got, want)
	}
}

func TestAdjacentClosenessNoInteractionsFallsBackToUniform(t *testing.T) {
	g := New(3)
	g.AddRelationship(0, 1, Relationship{Kind: Friendship})
	g.AddRelationship(0, 2, Relationship{Kind: Friendship})
	p := DefaultClosenessParams()
	got := g.Closeness(0, 1, p)
	if math.Abs(got-0.5) > 1e-12 { // m=1, uniform 1/|S_0| = 1/2
		t.Fatalf("Ωc with no interactions = %v, want 0.5", got)
	}
}

func TestClosenessSelfIsZero(t *testing.T) {
	g := chain(3)
	if c := g.Closeness(1, 1, DefaultClosenessParams()); c != 0 {
		t.Fatalf("Ωc(i,i) = %v, want 0", c)
	}
}

func TestNonAdjacentCommonFriendEquation3(t *testing.T) {
	// 0-2, 2-1: node 2 is the single common friend of 0 and 1.
	g := New(3)
	g.AddRelationship(0, 2, Relationship{Kind: Friendship})
	g.AddRelationship(2, 1, Relationship{Kind: Friendship})
	g.RecordInteraction(0, 2, 1)
	g.RecordInteraction(2, 1, 1)
	p := DefaultClosenessParams()
	want := (g.Closeness(0, 2, p) + g.Closeness(2, 1, p)) / 2
	got := g.Closeness(0, 1, p)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("Ωc(0,1) = %v, want %v", got, want)
	}
}

func TestNonAdjacentPathMinFallback(t *testing.T) {
	// Chain 0-1-2-3: 0 and 3 share no common friends, so Ωc(0,3) is the
	// minimum adjacent closeness along the path.
	g := chain(4)
	g.RecordInteraction(0, 1, 10)
	g.RecordInteraction(1, 2, 1)
	g.RecordInteraction(1, 0, 9) // makes f(1,2) a small fraction of node 1's total
	g.RecordInteraction(2, 3, 5)
	p := DefaultClosenessParams()
	c01 := g.Closeness(0, 1, p)
	c12 := g.Closeness(1, 2, p)
	c23 := g.Closeness(2, 3, p)
	min := math.Min(c01, math.Min(c12, c23))
	got := g.Closeness(0, 3, p)
	if math.Abs(got-min) > 1e-12 {
		t.Fatalf("Ωc(0,3) = %v, want min %v (parts %v %v %v)", got, min, c01, c12, c23)
	}
}

func TestClosenessUnreachableIsZero(t *testing.T) {
	g := New(4)
	g.AddRelationship(0, 1, Relationship{Kind: Friendship})
	if c := g.Closeness(0, 3, DefaultClosenessParams()); c != 0 {
		t.Fatalf("Ωc unreachable = %v, want 0", c)
	}
}

func TestWeightedRelationshipStrengthEquation10(t *testing.T) {
	g := New(2)
	g.AddRelationship(0, 1, Relationship{Kind: Friendship}) // w=0.6
	g.AddRelationship(0, 1, Relationship{Kind: Kinship})    // w=1.0
	p := ClosenessParams{Weighted: true, Lambda: 0.5, MaxPathHops: 4}
	// Sorted descending: 1.0, 0.6 → 1.0·λ⁰ + 0.6·λ¹ = 1.3, uniform freq /1 friend.
	got := g.Closeness(0, 1, p)
	if math.Abs(got-1.3) > 1e-12 {
		t.Fatalf("weighted Ωc = %v, want 1.3", got)
	}
}

func TestWeightedDampsRelationshipStuffing(t *testing.T) {
	// Adding many weak relationships should grow weighted strength far more
	// slowly than the raw count — the Section 4.4 falsification defense.
	g := New(2)
	for k := 0; k < 10; k++ {
		g.AddRelationship(0, 1, Relationship{Kind: Friendship})
	}
	raw := g.relationshipStrengthLocked(0, 1, false, 0)
	weighted := g.relationshipStrengthLocked(0, 1, true, 0.5)
	if raw != 10 {
		t.Fatalf("raw strength = %v", raw)
	}
	// Geometric series 0.6·(1-0.5^10)/0.5 < 1.2
	if weighted > 1.2 {
		t.Fatalf("weighted strength = %v, want < 1.2", weighted)
	}
}

// --- properties ---

func TestClosenessNonNegativeProperty(t *testing.T) {
	f := func(edges []uint16, interact []uint16) bool {
		const n = 12
		g := New(n)
		for _, e := range edges {
			i, j := NodeID(e%n), NodeID((e/n)%n)
			if i != j {
				g.AddRelationship(i, j, Relationship{Kind: RelationshipKind(e % 4)})
			}
		}
		for _, e := range interact {
			i, j := NodeID(e%n), NodeID((e/n)%n)
			g.RecordInteraction(i, j, float64(e%7)+1)
		}
		p := DefaultClosenessParams()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if c := g.Closeness(NodeID(i), NodeID(j), p); c < 0 || math.IsNaN(c) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDistanceSymmetricProperty(t *testing.T) {
	f := func(edges []uint16) bool {
		const n = 10
		g := New(n)
		for _, e := range edges {
			i, j := NodeID(e%n), NodeID((e/n)%n)
			if i != j {
				g.AddRelationship(i, j, Relationship{Kind: Friendship})
			}
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if g.Distance(NodeID(i), NodeID(j), 0) != g.Distance(NodeID(j), NodeID(i), 0) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDistanceTriangleInequalityProperty(t *testing.T) {
	f := func(edges []uint16) bool {
		const n = 9
		g := New(n)
		for _, e := range edges {
			i, j := NodeID(e%n), NodeID((e/n)%n)
			if i != j {
				g.AddRelationship(i, j, Relationship{Kind: Friendship})
			}
		}
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				for c := 0; c < n; c++ {
					dab := g.Distance(NodeID(a), NodeID(b), 0)
					dbc := g.Distance(NodeID(b), NodeID(c), 0)
					dac := g.Distance(NodeID(a), NodeID(c), 0)
					if dab == NoPath || dbc == NoPath {
						continue
					}
					if dac == NoPath || dac > dab+dbc {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveNodeEdges(t *testing.T) {
	g := New(4)
	g.AddRelationship(0, 1, Relationship{Kind: Friendship})
	g.AddRelationship(1, 2, Relationship{Kind: Friendship})
	g.RecordInteraction(1, 2, 5)
	g.RecordInteraction(0, 1, 3)
	g.RemoveNodeEdges(1)
	if g.Degree(1) != 0 {
		t.Fatal("node 1 still has edges")
	}
	if g.Adjacent(0, 1) || g.Adjacent(2, 1) {
		t.Fatal("neighbors still adjacent to removed node")
	}
	if g.TotalInteractionsFrom(1) != 0 {
		t.Fatal("outgoing interactions survived removal")
	}
	// Others' memories of the departed identity persist.
	if g.InteractionFrequency(0, 1) != 3 {
		t.Fatal("incoming interaction record should persist")
	}
	// The slot can be rewired.
	g.AddRelationship(1, 3, Relationship{Kind: Kinship})
	if !g.Adjacent(1, 3) {
		t.Fatal("slot not reusable")
	}
}
