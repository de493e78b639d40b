package ebay

import (
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"socialtrust/internal/rating"
)

func snap(rs ...rating.Rating) rating.Snapshot {
	return rating.Snapshot{Ratings: rs}
}

func TestNewPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0)
}

func TestName(t *testing.T) {
	if New(2).Name() != "eBay" {
		t.Fatal("Name mismatch")
	}
}

func TestSingleRatingAccumulates(t *testing.T) {
	e := New(3)
	e.Update(snap(rating.Rating{Rater: 0, Ratee: 1, Value: 1}))
	if got := e.RawScore(1); got != 1 {
		t.Fatalf("RawScore = %v, want 1", got)
	}
	r := e.Reputations()
	if r[1] != 1 || r[0] != 0 {
		t.Fatalf("Reputations = %v", r)
	}
}

func TestFrequencyDeduplication(t *testing.T) {
	// The defining eBay property: 100 positive ratings from one rater in
	// one interval contribute exactly as much as 1.
	spam, single := New(3), New(3)
	var rs []rating.Rating
	for k := 0; k < 100; k++ {
		rs = append(rs, rating.Rating{Rater: 0, Ratee: 1, Value: 1})
	}
	spam.Update(snap(rs...))
	single.Update(snap(rating.Rating{Rater: 0, Ratee: 1, Value: 1}))
	if spam.RawScore(1) != single.RawScore(1) {
		t.Fatalf("spam %v vs single %v: dedup failed", spam.RawScore(1), single.RawScore(1))
	}
}

func TestDistinctRatersStack(t *testing.T) {
	e := New(4)
	e.Update(snap(
		rating.Rating{Rater: 0, Ratee: 3, Value: 1},
		rating.Rating{Rater: 1, Ratee: 3, Value: 1},
		rating.Rating{Rater: 2, Ratee: 3, Value: 1},
	))
	if got := e.RawScore(3); got != 3 {
		t.Fatalf("RawScore = %v, want 3 (one per distinct rater)", got)
	}
}

func TestMixedFeedbackNetSign(t *testing.T) {
	// 2 positive + 1 negative raw ratings in one interval: net-positive →
	// the full +1 weekly feedback unit ("more authentic than inauthentic").
	e := New(2)
	e.Update(snap(
		rating.Rating{Rater: 0, Ratee: 1, Value: 1},
		rating.Rating{Rater: 0, Ratee: 1, Value: 1},
		rating.Rating{Rater: 0, Ratee: 1, Value: -1},
	))
	if got := e.RawScore(1); got != 1 {
		t.Fatalf("RawScore = %v, want 1", got)
	}
	// Net-negative interval → −1.
	e.Update(snap(
		rating.Rating{Rater: 0, Ratee: 1, Value: -1},
		rating.Rating{Rater: 0, Ratee: 1, Value: -1},
		rating.Rating{Rater: 0, Ratee: 1, Value: 1},
	))
	if got := e.RawScore(1); got != 0 {
		t.Fatalf("after net-negative interval RawScore = %v, want 0", got)
	}
	// Perfectly balanced interval contributes nothing.
	e.Update(snap(
		rating.Rating{Rater: 0, Ratee: 1, Value: 1},
		rating.Rating{Rater: 0, Ratee: 1, Value: -1},
	))
	if got := e.RawScore(1); got != 0 {
		t.Fatalf("balanced interval RawScore = %v, want 0", got)
	}
}

func TestContributionClamped(t *testing.T) {
	e := New(2)
	e.Update(snap(rating.Rating{Rater: 0, Ratee: 1, Value: 50}))
	if got := e.RawScore(1); got != 1 {
		t.Fatalf("clamped contribution = %v, want 1", got)
	}
	e.Update(snap(rating.Rating{Rater: 0, Ratee: 1, Value: -50}))
	if got := e.RawScore(1); got != 0 {
		t.Fatalf("after negative clamp RawScore = %v, want 0", got)
	}
}

func TestAdjustedValuesPassThrough(t *testing.T) {
	// SocialTrust-shrunk ratings contribute their shrunk magnitude.
	e := New(2)
	e.Update(snap(
		rating.Rating{Rater: 0, Ratee: 1, Value: 0.01},
		rating.Rating{Rater: 0, Ratee: 1, Value: 0.01},
	))
	if got := e.RawScore(1); math.Abs(got-0.01) > 1e-12 {
		t.Fatalf("RawScore = %v, want 0.01", got)
	}
}

func TestAccumulatesAcrossIntervals(t *testing.T) {
	e := New(2)
	for k := 0; k < 5; k++ {
		e.Update(snap(rating.Rating{Rater: 0, Ratee: 1, Value: 1}))
	}
	if got := e.RawScore(1); got != 5 {
		t.Fatalf("RawScore = %v, want 5 (one per interval)", got)
	}
}

func TestNegativeScoreYieldsZeroReputation(t *testing.T) {
	e := New(3)
	e.Update(snap(
		rating.Rating{Rater: 0, Ratee: 1, Value: -1},
		rating.Rating{Rater: 0, Ratee: 2, Value: 1},
	))
	r := e.Reputations()
	if r[1] != 0 {
		t.Fatalf("negative node reputation = %v, want 0", r[1])
	}
	if r[2] != 1 {
		t.Fatalf("positive node reputation = %v, want 1", r[2])
	}
}

func TestReset(t *testing.T) {
	e := New(2)
	e.Update(snap(rating.Rating{Rater: 0, Ratee: 1, Value: 1}))
	e.Reset()
	if e.RawScore(1) != 0 {
		t.Fatal("Reset failed")
	}
}

func TestReputationPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2).Reputation(9)
}

func TestReputationsNormalizedProperty(t *testing.T) {
	f := func(events []uint16) bool {
		const n = 7
		e := New(n)
		var rs []rating.Rating
		anyPositive := false
		for _, ev := range events {
			i, j := int(ev%n), int((ev/n)%n)
			if i == j {
				continue
			}
			v := float64(int(ev%5) - 2)
			rs = append(rs, rating.Rating{Rater: i, Ratee: j, Value: v})
			if v > 0 {
				anyPositive = true
			}
		}
		e.Update(snap(rs...))
		total := 0.0
		for _, v := range e.Reputations() {
			if v < 0 || math.IsNaN(v) {
				return false
			}
			total += v
		}
		if !anyPositive {
			return total == 0 || math.Abs(total-1) < 1e-9
		}
		return math.Abs(total-1) < 1e-9 || total == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestResetNode(t *testing.T) {
	e := New(3)
	e.Update(snap(rating.Rating{Rater: 0, Ratee: 1, Value: 1}))
	e.ResetNode(1)
	if e.RawScore(1) != 0 {
		t.Fatal("score survived ResetNode")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range ResetNode should panic")
		}
	}()
	e.ResetNode(9)
}

// mapUpdate is the per-pair map fold Update replaced, kept as its reference:
// each pair's values summed in input order, contributions added to scores
// in (ratee, rater) order.
func mapUpdate(scores []float64, snap rating.Snapshot) {
	type agg struct {
		sum    float64
		absSum float64
		n      int
	}
	pairs := make(map[rating.PairKey]*agg)
	for _, r := range snap.Ratings {
		k := rating.PairKey{Rater: r.Rater, Ratee: r.Ratee}
		a := pairs[k]
		if a == nil {
			a = &agg{}
			pairs[k] = a
		}
		a.sum += r.Value
		a.absSum += math.Abs(r.Value)
		a.n++
	}
	keys := make([]rating.PairKey, 0, len(pairs))
	for k := range pairs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Ratee != keys[j].Ratee {
			return keys[i].Ratee < keys[j].Ratee
		}
		return keys[i].Rater < keys[j].Rater
	})
	for _, k := range keys {
		a := pairs[k]
		scores[k.Ratee] += contribution(a.sum, a.absSum, a.n)
	}
}

// TestUpdateMatchesMapReference pins Update's fold over pair runs to the map
// fold it replaced, bit for bit, across intervals of random ratings: in
// input order, where pairs repeat apart from each other, and in snapshot
// order. Fractional values make every sum depend on its order, so a pair
// summed out of input order or a contribution added out of (ratee, rater)
// order shows as a different score. Update must leave the snapshot as it
// was.
func TestUpdateMatchesMapReference(t *testing.T) {
	const n = 6
	rng := rand.New(rand.NewPCG(3, 5))
	value := func() float64 {
		switch rng.IntN(4) {
		case 0:
			return float64(rng.IntN(3) - 1)
		default:
			return rng.Float64()*4 - 2
		}
	}
	for trial := 0; trial < 300; trial++ {
		e, ref := New(n), make([]float64, n)
		for iv := 0; iv < 4; iv++ {
			rs := make([]rating.Rating, rng.IntN(80))
			for i := range rs {
				rater := rng.IntN(n)
				rs[i] = rating.Rating{
					Rater: rater, Ratee: (rater + 1 + rng.IntN(n-1)) % n,
					Value: value(), Cycle: rng.IntN(3), Category: rng.IntN(3),
				}
			}
			if rng.IntN(3) == 0 {
				rs = rating.SnapshotOrder(rs)
			}
			in := slices.Clone(rs)
			e.Update(rating.Snapshot{Ratings: rs})
			mapUpdate(ref, rating.Snapshot{Ratings: rs})
			if !slices.Equal(rs, in) {
				t.Fatalf("trial %d interval %d: Update reordered the snapshot", trial, iv)
			}
			for j := range ref {
				if math.Float64bits(e.RawScore(j)) != math.Float64bits(ref[j]) {
					t.Fatalf("trial %d interval %d: RawScore(%d) = %v, want %v", trial, iv, j, e.RawScore(j), ref[j])
				}
			}
		}
	}
}
