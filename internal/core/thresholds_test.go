package core

import (
	"maps"
	"math/rand/v2"
	"slices"
	"testing"

	"socialtrust/internal/interest"
	"socialtrust/internal/rating"
	"socialtrust/internal/socialgraph"
	"socialtrust/internal/stats"
)

// fixedReps is an inner engine whose reputation vector is fixed, so the
// B2 ratee test reads exactly the values a test chose.
type fixedReps []float64

func (f fixedReps) Name() string                { return "fixed" }
func (f fixedReps) Update(rating.Snapshot)      {}
func (f fixedReps) Reputations() []float64      { return append([]float64(nil), f...) }
func (f fixedReps) Reputation(node int) float64 { return f[node] }
func (f fixedReps) Reset()                      {}
func (f fixedReps) ResetNode(int)               {}

// TestBehaviorThresholdsHandComputed pins the B1–B4 classification at the
// Section 5.1 thresholds on a crafted 10-node interval, with one pair on
// each side of each threshold and every expected mask computed by hand.
//
// Graph: complete on 10 nodes, no interactions recorded, so every pair is
// adjacent and Ωc(i,j) = m(i,j)/deg(i) = m(i,j)/9 (Eq. 2 with the
// uniform-frequency fallback), m being the edge's relationship count: 1 on
// {8,1}, {8,2}, {8,3}; 2 on {1,2}, {2,3}, {3,4}; 4 on {0,1}, {0,2}, {0,3},
// {5,6}; 3 everywhere else.
//
// Interests: node i < 8 holds {1, 10+i} and node 9 holds {1, 10}, so any
// two of them share exactly category 1 (Ωs = 1/2, Eq. 1) except 0 and 9,
// which are identical (Ωs = 1). Node 8 holds {8, 9} (Ωs = 0 with everyone).
//
// Frequencies: 28 pairs carry 196 ratings, so F = 7 and T+ = T− = θ·F = 21.
// Frequent pairs carry 22 ratings, the gate pair exactly 21, one baseline
// pair 2 and the rest 1.
//
// Baseline (the 21 pairs with at most 21 of each polarity):
//   - Ωc sorted: 1/9 (the gate pair), 2/9 ×2, 3/9 ×15, 4/9 ×3. Percentile
//     ranks are 0.1·20 = 2 and 0.9·20 = 18, so Tcl = 2/9 and Tch = 4/9.
//   - Ωs: 0 (the gate pair), 1 (9→0) and 1/2 ×19, so the mean is 10.5/21 =
//     1/2 exactly, which is Tsl = Tsh.
//
// Reputations: TR = 2/N = 0.2. Ratees 6 and 7 sit at 0 (low-reputed), every
// other node at exactly 0.2 (not below TR).
func TestBehaviorThresholdsHandComputed(t *testing.T) {
	const n = 10
	g := socialgraph.New(n)
	mult := map[[2]int]int{
		{1, 8}: 1, {2, 8}: 1, {3, 8}: 1,
		{1, 2}: 2, {2, 3}: 2, {3, 4}: 2,
		{0, 1}: 4, {0, 2}: 4, {0, 3}: 4, {5, 6}: 4,
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m, ok := mult[[2]int{i, j}]
			if !ok {
				m = 3
			}
			for k := 0; k < m; k++ {
				g.AddRelationship(socialgraph.NodeID(i), socialgraph.NodeID(j),
					socialgraph.Relationship{Kind: socialgraph.Friendship})
			}
		}
	}
	sets := make([]interest.Set, n)
	for i := 0; i < 8; i++ {
		sets[i] = interest.NewSet(1, interest.Category(10+i))
	}
	sets[8] = interest.NewSet(8, 9)
	sets[9] = interest.NewSet(1, 10)
	reps := make(fixedReps, n)
	for i := range reps {
		reps[i] = 2 / float64(n)
	}
	reps[6], reps[7] = 0, 0

	type pair struct{ rater, ratee, pos, neg int }
	baseline := []pair{
		// The gate pair: Ωc = 1/9 < Tcl and Ωs = 0 < Tsl, so it would be
		// B1|B3, but 21 positives are not > T+ = 21, and it stays in the
		// baseline. Mask: none.
		{8, 1, 21, 0},
		{9, 0, 1, 0},               // Ωc 3/9, Ωs 1
		{1, 2, 1, 0}, {2, 3, 1, 0}, // Ωc 2/9
		{0, 1, 1, 0}, {0, 2, 1, 0}, {0, 3, 1, 0}, // Ωc 4/9
		// Ωc 3/9; (4,7) carries the interval's one 2-rating baseline pair.
		{1, 5, 1, 0}, {1, 6, 1, 0}, {1, 7, 1, 0}, {2, 4, 1, 0}, {2, 5, 1, 0},
		{2, 6, 1, 0}, {2, 7, 1, 0}, {3, 5, 1, 0}, {3, 6, 1, 0}, {3, 7, 1, 0},
		{4, 5, 1, 0}, {4, 6, 1, 0}, {4, 7, 1, 1}, {9, 1, 1, 0},
	}
	frequent := []pair{
		{8, 2, 22, 0}, // Ωc 1/9 < Tcl: B1; Ωs 0 < Tsl: B3. Mask: B1|B3.
		{3, 4, 22, 0}, // Ωc 2/9, not < Tcl; Ωs 1/2, not < Tsl. Mask: none.
		{5, 6, 22, 0}, // Ωc 4/9 >= Tch and R6 = 0 < TR: B2. Mask: B2.
		{5, 7, 22, 0}, // Ωc 3/9 < Tch although R7 = 0 < TR. Mask: none.
		{6, 5, 22, 0}, // Ωc 4/9 >= Tch but R5 = 0.2, not < TR. Mask: none.
		{1, 4, 0, 22}, // 22 negatives, Ωs 1/2 >= Tsh: B4. Mask: B4.
		{8, 3, 0, 22}, // 22 negatives, Ωs 0 < Tsh. Mask: none.
	}
	want := map[rating.PairKey]PairAdjustment{
		{Rater: 8, Ratee: 2}: {Behaviors: B1 | B3, Closeness: 1.0 / 9, Similar: 0},
		{Rater: 5, Ratee: 6}: {Behaviors: B2, Closeness: 4.0 / 9, Similar: 0.5},
		{Rater: 1, Ratee: 4}: {Behaviors: B4, Closeness: 3.0 / 9, Similar: 0.5},
	}

	led := rating.NewLedger(n)
	total := 0
	for _, p := range append(baseline, frequent...) {
		for k := 0; k < p.pos+p.neg; k++ {
			v := 1.0
			if k >= p.pos {
				v = -1
			}
			if err := led.Add(rating.Rating{Rater: p.rater, Ratee: p.ratee, Value: v}); err != nil {
				t.Fatal(err)
			}
			total++
		}
	}
	if total != 196 {
		t.Fatalf("crafted interval has %d ratings, want 196", total)
	}

	snap := led.EndInterval()
	for _, workers := range []int{1, 4} {
		st := New(Config{NumNodes: n, Workers: workers}, g, sets, nil, reps)
		_, rep := st.Adjust(snap)
		if rep.PosThreshold != 21 || rep.NegThreshold != 21 {
			t.Fatalf("thresholds T+ = %v, T− = %v, want 21", rep.PosThreshold, rep.NegThreshold)
		}
		if cb, sb := rep.ClosenessBaseline, rep.SimilarityBaseline; cb.N != 21 || sb.N != 21 || sb.Mean != 0.5 {
			t.Fatalf("baseline closeness %+v, similarity %+v; want 21 pairs each and mean Ωs 1/2", cb, sb)
		}
		got := map[rating.PairKey]PairAdjustment{}
		for _, a := range rep.Adjusted {
			got[a.Pair] = PairAdjustment{Behaviors: a.Behaviors, Closeness: a.Closeness, Similar: a.Similar}
		}
		if !maps.Equal(got, want) {
			t.Fatalf("workers=%d: flagged pairs %+v, want %+v", workers, got, want)
		}
	}
}

// TestSummarizeBaselineMatchesStats pins the baseline summary, which sorts
// each signal's population once in place, to stats.MinMax and
// stats.Percentile on the population in pair order: random populations with
// ties, at sizes on both sides of one mean block. The mean is the blocked
// sum in pair order, and quantiles reads Tcl and Tch off the sorted slice.
func TestSummarizeBaselineMatchesStats(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	st := &SocialTrust{}
	for _, n := range []int{1, 2, 3, 20, 101, meanBlock + 17} {
		for _, distinct := range []int{1, 3, 50, 1 << 20} {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(rng.IntN(distinct)) / float64(distinct)
			}
			pairOrder := slices.Clone(xs)
			lo, hi, _ := stats.MinMax(pairOrder)
			p05, _ := stats.Percentile(pairOrder, 5)
			p95, _ := stats.Percentile(pairOrder, 95)
			want := BaselineStats{Mean: st.blockedMean(pairOrder), Min: lo, Max: hi, Lo: p05, Hi: p95, N: n}
			if got := st.summarizeBaseline(xs); got != want {
				t.Fatalf("n=%d distinct=%d: summarizeBaseline = %+v, want %+v", n, distinct, got, want)
			}
			if !slices.IsSorted(xs) {
				t.Fatalf("n=%d distinct=%d: population not left sorted", n, distinct)
			}
			tcl, _ := stats.Percentile(pairOrder, closenessLowQ*100)
			tch, _ := stats.Percentile(pairOrder, closenessHighQ*100)
			if gl, gh := quantiles(xs, closenessLowQ, closenessHighQ); gl != tcl || gh != tch {
				t.Fatalf("n=%d distinct=%d: quantiles = %v, %v, want %v, %v", n, distinct, gl, gh, tcl, tch)
			}
		}
	}
}
