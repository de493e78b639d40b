package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("streams with same seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different seeds agreed on %d/100 draws", same)
	}
}

func TestSplitDeterministic(t *testing.T) {
	a := New(7).Split(3)
	b := New(7).Split(3)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same (seed,label) split diverged")
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	a, b := parent.Split(1), parent.Split(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("sibling splits agreed on %d/100 draws", same)
	}
}

func TestSplitStringDeterministic(t *testing.T) {
	a := New(9).SplitString("topology")
	b := New(9).SplitString("topology")
	c := New(9).SplitString("queries")
	if a.Float64() != b.Float64() {
		t.Fatal("same string label diverged")
	}
	if a.Float64() == c.Float64() {
		t.Fatal("different string labels should (almost surely) differ")
	}
}

func TestIntRangeBounds(t *testing.T) {
	s := New(1)
	for i := 0; i < 10000; i++ {
		v := s.IntRange(3, 7)
		if v < 3 || v > 7 {
			t.Fatalf("IntRange(3,7) = %d out of bounds", v)
		}
	}
	// Degenerate single-point range.
	if v := s.IntRange(5, 5); v != 5 {
		t.Fatalf("IntRange(5,5) = %d, want 5", v)
	}
}

func TestIntRangeCoversAllValues(t *testing.T) {
	s := New(2)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		seen[s.IntRange(1, 4)] = true
	}
	for v := 1; v <= 4; v++ {
		if !seen[v] {
			t.Fatalf("IntRange(1,4) never produced %d in 1000 draws", v)
		}
	}
}

func TestIntRangePanicsOnInvertedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("IntRange(5,4) should panic")
		}
	}()
	New(1).IntRange(5, 4)
}

func TestFloatRange(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		v := s.FloatRange(0.5, 1.0)
		if v < 0.5 || v >= 1.0 {
			t.Fatalf("FloatRange(0.5,1) = %v out of bounds", v)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(4)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) hit rate %v, want ~0.3", frac)
	}
	if s.Bool(0) {
		t.Fatal("Bool(0) returned true")
	}
}

func TestParetoTail(t *testing.T) {
	s := New(5)
	const n = 50000
	over := 0
	for i := 0; i < n; i++ {
		v := s.Pareto(1, 2)
		if v < 1 {
			t.Fatalf("Pareto(1,2) = %v < xm", v)
		}
		if v > 2 {
			over++
		}
	}
	// P(X>2) = (1/2)^2 = 0.25 for alpha=2.
	frac := float64(over) / n
	if math.Abs(frac-0.25) > 0.02 {
		t.Fatalf("Pareto tail mass %v, want ~0.25", frac)
	}
}

func TestParetoPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pareto(0,1) should panic")
		}
	}()
	New(1).Pareto(0, 1)
}

func TestZipfRankSkew(t *testing.T) {
	s := New(6)
	counts := make([]int, 5)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[s.Zipf(5, 1.5)]++
	}
	for r := 1; r < 5; r++ {
		if counts[r] >= counts[r-1] {
			t.Fatalf("Zipf counts not decreasing: rank %d has %d >= rank %d has %d",
				r, counts[r], r-1, counts[r-1])
		}
	}
	// Rank 0 should hold the plurality of the mass for exponent 1.5.
	if counts[0] < n/3 {
		t.Fatalf("Zipf rank-0 mass %d too small", counts[0])
	}
}

func TestZipfSingleCategory(t *testing.T) {
	s := New(7)
	for i := 0; i < 100; i++ {
		if v := s.Zipf(1, 2); v != 0 {
			t.Fatalf("Zipf(1,·) = %d, want 0", v)
		}
	}
}

func TestSampleWithout(t *testing.T) {
	s := New(8)
	got := s.SampleWithout(10, 4, func(i int) bool { return i%2 == 0 })
	if len(got) != 4 {
		t.Fatalf("got %d samples, want 4", len(got))
	}
	seen := map[int]bool{}
	for _, v := range got {
		if v%2 == 0 {
			t.Fatalf("sampled excluded value %d", v)
		}
		if seen[v] {
			t.Fatalf("duplicate sample %d", v)
		}
		seen[v] = true
	}
}

func TestSampleWithoutPanicsWhenTooFew(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when candidates < k")
		}
	}()
	New(1).SampleWithout(4, 3, func(i int) bool { return i < 2 })
}

func TestMixBijectivityProperty(t *testing.T) {
	// mix is a bijection, so distinct inputs must give distinct outputs.
	f := func(a, b uint64) bool {
		if a == b {
			return true
		}
		return mix(a) != mix(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloat64InUnitIntervalProperty(t *testing.T) {
	f := func(seed uint64) bool {
		s := New(seed)
		for i := 0; i < 32; i++ {
			v := s.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZipfWithinBoundsProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%20) + 1
		s := New(seed)
		for i := 0; i < 16; i++ {
			v := s.Zipf(n, 1.2)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZipfPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Zipf(0,·) should panic")
		}
	}()
	New(1).Zipf(0, 1.5)
}

func TestPerm(t *testing.T) {
	s := New(11)
	p := s.Perm(8)
	seen := make([]bool, 8)
	for _, v := range p {
		if v < 0 || v >= 8 || seen[v] {
			t.Fatalf("Perm = %v not a permutation", p)
		}
		seen[v] = true
	}
}

func TestSeedAccessor(t *testing.T) {
	if New(77).Seed() != 77 {
		t.Fatal("Seed() mismatch")
	}
}

// exercise burns a deterministic but varied mix of draws, covering every
// distribution helper the simulator uses, and returns a digest of what it
// produced.
func exercise(s *Stream, rounds int) []float64 {
	out := make([]float64, 0, rounds*8)
	for i := 0; i < rounds; i++ {
		out = append(out,
			s.Float64(),
			float64(s.Intn(97)),
			float64(s.IntRange(3, 900)),
			s.FloatRange(-2, 9),
			s.Pareto(1, 1.4),
			float64(s.Zipf(13, 1.1)),
		)
		if s.Bool(0.4) {
			out = append(out, float64(s.Perm(11)[3]))
		}
		if i%5 == 0 {
			out = append(out, float64(s.SampleWithout(40, 6, func(v int) bool { return v%3 == 0 })[0]))
		}
	}
	return out
}

func TestSourceDrawsCountsEveryHelper(t *testing.T) {
	s := New(21)
	if s.SourceDraws() != 0 {
		t.Fatalf("fresh stream reports %d draws, want 0", s.SourceDraws())
	}
	exercise(s, 50)
	if s.SourceDraws() == 0 {
		t.Fatal("SourceDraws did not advance")
	}
}

// TestDiscardRestoresExactPosition is the durability contract: a stream's
// position is fully captured by (seed, SourceDraws), and a fresh stream
// fast-forwarded with Discard continues bit-identically across every
// distribution helper, including rejection-sampling paths (Intn, Pareto)
// whose draw count varies per call.
func TestDiscardRestoresExactPosition(t *testing.T) {
	for _, rounds := range []int{0, 1, 7, 133} {
		orig := New(99)
		exercise(orig, rounds)
		draws := orig.SourceDraws()

		restored := New(99)
		restored.Discard(draws)
		if restored.SourceDraws() != draws {
			t.Fatalf("restored stream reports %d draws, want %d", restored.SourceDraws(), draws)
		}
		a := exercise(orig, 60)
		b := exercise(restored, 60)
		if len(a) != len(b) {
			t.Fatalf("rounds=%d: continuation lengths diverge: %d vs %d", rounds, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("rounds=%d: continuation diverges at %d: %v vs %v", rounds, i, a[i], b[i])
			}
		}
		if orig.SourceDraws() != restored.SourceDraws() {
			t.Fatalf("draw counters diverge after identical continuations: %d vs %d",
				orig.SourceDraws(), restored.SourceDraws())
		}
	}
}

func TestDiscardZeroIsNoop(t *testing.T) {
	a, b := New(5), New(5)
	a.Discard(0)
	if a.Float64() != b.Float64() {
		t.Fatal("Discard(0) changed the stream")
	}
}
