// Package metrics computes the evaluation metrics the paper's figures are
// read through: per-node-group reputation summaries, the separation between
// colluder and honest reputations (ranking AUC — how reliably a reputation
// threshold distinguishes colluders), and the Gini coefficient of the
// reputation distribution (how concentrated trust is).
package metrics

import (
	"sort"

	"socialtrust/internal/sim"
	"socialtrust/internal/stats"
)

// GroupSummary aggregates a reputation vector by node type.
type GroupSummary struct {
	Pretrusted, Colluder, Normal stats.Summary
	MaxColluder, MaxNormal       float64
}

// SummarizeGroups splits a reputation vector by the configuration's node
// layout and summarizes each group.
func SummarizeGroups(cfg sim.Config, reps []float64) GroupSummary {
	var pre, coll, norm []float64
	for id, v := range reps {
		switch cfg.Type(id) {
		case sim.Pretrusted:
			pre = append(pre, v)
		case sim.Colluder:
			coll = append(coll, v)
		default:
			norm = append(norm, v)
		}
	}
	var g GroupSummary
	g.Pretrusted, _ = stats.Summarize(pre)
	g.Colluder, _ = stats.Summarize(coll)
	g.Normal, _ = stats.Summarize(norm)
	if len(coll) > 0 {
		_, g.MaxColluder, _ = stats.MinMax(coll)
	}
	if len(norm) > 0 {
		_, g.MaxNormal, _ = stats.MinMax(norm)
	}
	return g
}

// SeparationAUC measures how well LOW reputation identifies colluders: the
// probability that a uniformly random colluder has strictly lower
// reputation than a uniformly random honest (normal) peer, with ties
// counted half. 1.0 means a threshold exists that cleanly separates
// colluders below honest peers (the defense works); 0.5 means reputation
// carries no signal; below 0.5 the colluders have won.
func SeparationAUC(cfg sim.Config, reps []float64) float64 {
	var coll, honest []float64
	for id, v := range reps {
		switch cfg.Type(id) {
		case sim.Colluder:
			coll = append(coll, v)
		case sim.Normal:
			honest = append(honest, v)
		}
	}
	if len(coll) == 0 || len(honest) == 0 {
		return 0
	}
	// O((n+m) log(n+m)) via sorted ranks.
	sort.Float64s(honest)
	total := 0.0
	for _, c := range coll {
		lo := sort.SearchFloat64s(honest, c)         // honest < c
		hi := sort.SearchFloat64s(honest, nextUp(c)) // honest <= c
		greater := len(honest) - hi
		ties := hi - lo
		total += float64(greater) + float64(ties)/2
	}
	return total / float64(len(coll)*len(honest))
}

// nextUp returns the smallest float64 greater than x for tie detection in
// SearchFloat64s. Values here are normalized reputations, far from the
// edges of the float range.
func nextUp(x float64) float64 {
	if x == 0 {
		return 5e-324
	}
	// A one-ulp bump via successive scaling is overkill; reputations are
	// in [0,1], so a relative epsilon is exact enough for tie grouping.
	return x * (1 + 1e-15)
}

// Gini computes the Gini coefficient of a non-negative distribution:
// 0 = perfectly even, →1 = all mass on one node. The paper's EigenTrust
// plots are visibly more concentrated than eBay's; this quantifies that.
func Gini(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var cum, weighted float64
	for i, x := range sorted {
		if x < 0 {
			x = 0
		}
		cum += x
		weighted += float64(i+1) * x
	}
	if cum == 0 {
		return 0
	}
	n := float64(len(sorted))
	return (2*weighted - (n+1)*cum) / (n * cum)
}
