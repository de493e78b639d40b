package interest

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestSetBasics(t *testing.T) {
	s := NewSet(3, 1, 3) // duplicate collapses
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if !s.Contains(1) || !s.Contains(3) || s.Contains(2) {
		t.Fatal("Contains mismatch")
	}
	s.Add(2)
	if !s.Contains(2) {
		t.Fatal("Add failed")
	}
	s.Remove(1)
	if s.Contains(1) {
		t.Fatal("Remove failed")
	}
	cats := s.Categories()
	if len(cats) != 2 || cats[0] != 2 || cats[1] != 3 {
		t.Fatalf("Categories = %v", cats)
	}
}

func TestZeroValueSet(t *testing.T) {
	var s Set
	if s.Len() != 0 || s.Contains(0) {
		t.Fatal("zero set should be empty")
	}
	s.Add(5)
	if !s.Contains(5) {
		t.Fatal("Add on zero value failed")
	}
}

func TestIntersect(t *testing.T) {
	a := NewSet(1, 2, 3, 4)
	b := NewSet(3, 4, 5)
	got := a.Intersect(b)
	if len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Fatalf("Intersect = %v", got)
	}
	if len(NewSet(1).Intersect(NewSet(2))) != 0 {
		t.Fatal("disjoint Intersect should be empty")
	}
}

func TestSimilarityEquation7(t *testing.T) {
	a := NewSet(1, 2, 3, 4) // |V|=4
	b := NewSet(3, 4)       // |V|=2, intersection 2 → 2/min(4,2)=1
	if got := Similarity(a, b); got != 1 {
		t.Fatalf("Similarity = %v, want 1", got)
	}
	c := NewSet(1, 5)
	if got := Similarity(a, c); got != 0.5 { // intersection {1}, min=2
		t.Fatalf("Similarity = %v, want 0.5", got)
	}
	if got := Similarity(a, NewSet(9)); got != 0 {
		t.Fatalf("disjoint Similarity = %v, want 0", got)
	}
	var empty Set
	if got := Similarity(a, empty); got != 0 {
		t.Fatalf("empty Similarity = %v, want 0", got)
	}
}

func TestSimilaritySymmetric(t *testing.T) {
	a := NewSet(1, 2, 3)
	b := NewSet(2, 3, 4, 5)
	if Similarity(a, b) != Similarity(b, a) {
		t.Fatal("Similarity must be symmetric")
	}
}

func TestTrackerWeights(t *testing.T) {
	tr := NewTracker(2)
	tr.Record(0, 1)
	tr.Record(0, 1)
	tr.Record(0, 2)
	if w := tr.Weight(0, 1); math.Abs(w-2.0/3) > 1e-12 {
		t.Fatalf("Weight = %v, want 2/3", w)
	}
	if w := tr.Weight(0, 9); w != 0 {
		t.Fatalf("unseen category weight = %v", w)
	}
	if w := tr.Weight(1, 1); w != 0 {
		t.Fatalf("idle node weight = %v", w)
	}
	if tot := tr.Requests(0); tot != 3 {
		t.Fatalf("Requests = %v", tot)
	}
	tr.Reset()
	if tr.Requests(0) != 0 {
		t.Fatal("Reset failed")
	}
}

func TestTrackerPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTracker(2).Record(5, 0)
}

func TestTrackerConcurrent(t *testing.T) {
	tr := NewTracker(4)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 500; k++ {
				tr.Record(1, Category(k%3))
			}
		}()
	}
	wg.Wait()
	if got := tr.Requests(1); got != 4000 {
		t.Fatalf("concurrent Requests = %v, want 4000", got)
	}
}

func TestWeightedSimilarityEquation11(t *testing.T) {
	a := NewSet(1, 2)
	b := NewSet(1, 2, 3)
	tr := NewTracker(2)
	// Node 0: 3 of 4 requests in cat 1, 1 in cat 2.
	tr.Record(0, 1)
	tr.Record(0, 1)
	tr.Record(0, 1)
	tr.Record(0, 2)
	// Node 1: all requests in cat 3 (not shared).
	tr.Record(1, 3)
	got := WeightedSimilarity(a, b, 0, 1, tr)
	if got != 0 {
		t.Fatalf("weighted sim with no shared requests = %v, want 0", got)
	}
	// Now node 1 requests in the shared categories.
	tr.Record(1, 1)
	tr.Record(1, 2)
	// ws(0,1)=0.75 ws(0,2)=0.25; ws(1,1)=1/3 ws(1,2)=1/3; min(|V|)=2
	want := (0.75*(1.0/3) + 0.25*(1.0/3)) / 2
	got = WeightedSimilarity(a, b, 0, 1, tr)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("weighted sim = %v, want %v", got, want)
	}
}

func TestWeightedSimilarityColdStartFallsBack(t *testing.T) {
	a := NewSet(1, 2)
	b := NewSet(2, 3)
	tr := NewTracker(2)
	got := WeightedSimilarity(a, b, 0, 1, tr)
	if got != Similarity(a, b) {
		t.Fatalf("cold-start weighted sim = %v, want profile sim %v", got, Similarity(a, b))
	}
	if got := WeightedSimilarity(a, b, 0, 1, nil); got != Similarity(a, b) {
		t.Fatalf("nil-tracker weighted sim = %v", got)
	}
}

func TestWeightedSimilarityDefeatsProfilePadding(t *testing.T) {
	// Colluder pads its profile to perfectly match its partner, but its
	// actual requests are elsewhere: weighted similarity stays near zero
	// while profile similarity claims 1.
	colluder := NewSet(1, 2, 3)
	partner := NewSet(1, 2, 3)
	tr := NewTracker(2)
	for k := 0; k < 50; k++ {
		tr.Record(0, 9) // requests outside the claimed interests
		tr.Record(1, 1)
	}
	if Similarity(colluder, partner) != 1 {
		t.Fatal("profile similarity should be fooled")
	}
	if w := WeightedSimilarity(colluder, partner, 0, 1, tr); w != 0 {
		t.Fatalf("weighted similarity = %v, want 0 (padding defeated)", w)
	}
}

// --- properties ---

func TestSimilarityBoundedSymmetricProperty(t *testing.T) {
	f := func(as, bs []uint8) bool {
		a, b := Set{}, Set{}
		for _, c := range as {
			a.Add(Category(c % 20))
		}
		for _, c := range bs {
			b.Add(Category(c % 20))
		}
		s := Similarity(a, b)
		if s < 0 || s > 1 {
			return false
		}
		return s == Similarity(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSimilarityIdentityProperty(t *testing.T) {
	f := func(as []uint8) bool {
		a := Set{}
		for _, c := range as {
			a.Add(Category(c % 20))
		}
		if a.Len() == 0 {
			return Similarity(a, a) == 0
		}
		return Similarity(a, a) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedSimilarityBoundedProperty(t *testing.T) {
	f := func(as, bs []uint8, reqs []uint8) bool {
		a, b := Set{}, Set{}
		for _, c := range as {
			a.Add(Category(c % 10))
		}
		for _, c := range bs {
			b.Add(Category(c % 10))
		}
		tr := NewTracker(2)
		for k, c := range reqs {
			tr.Record(k%2, Category(c%10))
		}
		w := WeightedSimilarity(a, b, 0, 1, tr)
		// Each ws product is ≤ 1 and there are ≤ min(|Vi|,|Vj|) shared
		// categories, so w ∈ [0,1].
		return w >= 0 && w <= 1 && !math.IsNaN(w)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
