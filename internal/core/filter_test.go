package core

import (
	"math"
	"testing"

	"socialtrust/internal/rating"
)

func TestFreqScale(t *testing.T) {
	cases := []struct {
		counts    rating.PairCounts
		behaviors Behavior
		meanF     float64
		want      float64
	}{
		// Positive-triggered pair 10x over the mean frequency.
		{rating.PairCounts{Positive: 100}, B2, 10, 0.1},
		// Negative-triggered pair 4x over.
		{rating.PairCounts{Negative: 40}, B4, 10, 0.25},
		// At or below the mean: no scaling, never amplification.
		{rating.PairCounts{Positive: 5}, B2, 10, 1},
		// Both polarities triggered: the stricter scale wins.
		{rating.PairCounts{Positive: 20, Negative: 100}, B2 | B4, 10, 0.1},
	}
	for i, c := range cases {
		if got := freqScale(c.counts, c.behaviors, c.meanF); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("case %d: freqScale = %v, want %v", i, got, c.want)
		}
	}
}

// TestMeanPairFrequency pins F, the mean total rating count per pair: 1 for
// an empty interval, the plain mean otherwise, floored at 1.
func TestMeanPairFrequency(t *testing.T) {
	cases := []struct {
		total, pairs int
		want         float64
	}{
		{0, 0, 1},
		{6, 2, 3}, // pairs of 2 and 3+1 ratings
		{1, 4, 1}, // mean 0.25, floored
		{7, 2, 3.5},
	}
	for _, c := range cases {
		if f := meanFrom(c.total, c.pairs); f != c.want {
			t.Errorf("meanFrom(%d, %d) = %v, want %v", c.total, c.pairs, f, c.want)
		}
	}
}

func TestFrequencyNormalizationCapsInfluence(t *testing.T) {
	// A flagged pair's total adjusted rating mass must stay at or below
	// roughly the threshold's worth of ratings.
	f := newFixture()
	f.normalTraffic()
	f.collusionTraffic(200) // extreme spam
	st := f.socialTrust(Config{})
	snap := f.ledger.EndInterval()
	adjusted, report := st.Adjust(snap)
	total := 0.0
	for _, r := range adjusted.Ratings {
		if r.Rater == 10 && r.Ratee == 11 {
			total += r.Value
		}
	}
	if total > report.PosThreshold {
		t.Fatalf("flagged pair's adjusted mass %v exceeds threshold %v", total, report.PosThreshold)
	}
}

func TestSimilarityGatesAtBaselineMean(t *testing.T) {
	// B4 must fire for a frequent-negative pair whose similarity is at or
	// above the baseline mean, even when the top quantile saturates at 1.
	f := newFixture()
	f.normalTraffic()
	// Nodes 0 and 1 share identical interest sets (similarity 1.0) while
	// baseline ring pairs sit at 0.5: node 0 floods node 1.
	for k := 0; k < 40; k++ {
		f.rate(0, 1, -1)
	}
	st := f.socialTrust(Config{})
	_, report := st.Adjust(f.ledger.EndInterval())
	found := false
	for _, a := range report.Adjusted {
		if a.Pair == (rating.PairKey{Rater: 0, Ratee: 1}) && a.Behaviors&B4 != 0 {
			found = true
			if a.Weight > 0.5 {
				t.Errorf("B4 weight %v, want strong suppression via frequency normalization", a.Weight)
			}
		}
	}
	if !found {
		t.Fatal("B4 did not fire for an at-mean-or-above similarity pair")
	}
}

func TestB3FiresBelowMeanSimilarity(t *testing.T) {
	// The fixture colluders share no interests (similarity 0, far below
	// the baseline mean ≈0.5): frequent positives must trigger B3.
	f := newFixture()
	f.normalTraffic()
	f.collusionTraffic(50)
	st := f.socialTrust(Config{UseCloseness: false, UseSimilarity: true})
	_, report := st.Adjust(f.ledger.EndInterval())
	for _, k := range []rating.PairKey{{Rater: 10, Ratee: 11}, {Rater: 11, Ratee: 10}} {
		found := false
		for _, a := range report.Adjusted {
			if a.Pair == k && a.Behaviors&B3 != 0 {
				found = true
			}
		}
		if !found {
			t.Fatalf("B3 did not fire for zero-similarity colluder pair %+v", k)
		}
	}
}

func TestBaselineStatsWidth(t *testing.T) {
	// Robust quantile range preferred; min-max fallback.
	st := BaselineStats{Min: 0, Max: 10, Lo: 1, Hi: 3}
	if got := st.width(); got != 2 {
		t.Fatalf("width = %v, want robust 2", got)
	}
	st = BaselineStats{Min: 0, Max: 10}
	if got := st.width(); got != 10 {
		t.Fatalf("width = %v, want min-max 10", got)
	}
}

func TestEmptyBaselineDisablesSimilarityGates(t *testing.T) {
	// With no baseline population, nothing should be flagged via the
	// similarity gates (tsl=0, tsh=+Inf).
	f := newFixture()
	// Only the colluders rate: every pair is frequency-suspicious, so the
	// baseline of non-suspicious pairs is empty.
	f.collusionTraffic(50)
	st := f.socialTrust(Config{UseCloseness: false, UseSimilarity: true})
	_, report := st.Adjust(f.ledger.EndInterval())
	for _, a := range report.Adjusted {
		if a.Behaviors&(B3|B4) != 0 {
			t.Fatalf("similarity behavior fired with empty baseline: %+v", a)
		}
	}
}

func TestLastReportThresholdsExposed(t *testing.T) {
	f := newFixture()
	f.normalTraffic()
	st := f.socialTrust(Config{})
	st.Update(f.ledger.EndInterval())
	rep := st.LastReport()
	if rep.PosThreshold <= 0 || rep.NegThreshold <= 0 {
		t.Fatalf("report thresholds = %+v", rep)
	}
	if rep.ClosenessBaseline.N == 0 || rep.SimilarityBaseline.N == 0 {
		t.Fatalf("report baselines empty: %+v", rep)
	}
}

func TestResetNodeForwardsToInner(t *testing.T) {
	f := newFixture()
	st := f.socialTrust(Config{})
	f.normalTraffic()
	st.Update(f.ledger.EndInterval())
	if st.Reputation(1) == 0 {
		t.Fatal("precondition: node 1 has reputation")
	}
	st.ResetNode(1)
	if st.Reputation(1) != 0 {
		t.Fatal("inner engine kept node 1's reputation after ResetNode")
	}
}
