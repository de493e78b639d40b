// Package stats implements the descriptive statistics the paper's trace
// analysis and evaluation rely on: the squared correlation coefficient used
// in Section 3 (C = sxy²/(sxx·syy)), empirical CDFs, percentiles and
// confidence intervals.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by aggregations that require at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Correlation computes the paper's correlation coefficient
// C = sxy² / (sxx·syy) where sxy = Σ(xi−x̄)(yi−ȳ), sxx = Σ(xi−x̄)², and
// syy = Σ(yi−ȳ)². This is the square of Pearson's r, so it lies in [0,1];
// the paper reports C=0.996 for reputation vs business-network size and
// C=0.092 for reputation vs personal-network size.
func Correlation(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errors.New("stats: correlation inputs have different lengths")
	}
	if len(xs) < 2 {
		return 0, ErrEmpty
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, errors.New("stats: correlation undefined for constant input")
	}
	return (sxy * sxy) / (sxx * syy), nil
}

// Percentile returns the p-th percentile (p in [0,100]) of xs using linear
// interpolation between closest ranks. It returns ErrEmpty for no samples.
// xs is left as it is: Percentile sorts a copy.
func Percentile(xs []float64, p float64) (float64, error) {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return PercentileSorted(sorted, p)
}

// PercentileSorted is Percentile of sorted, which must already be in
// ascending order; it reads the ranks without copying or sorting.
func PercentileSorted(sorted []float64, p float64) (float64, error) {
	if len(sorted) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, errors.New("stats: percentile out of [0,100]")
	}
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) (float64, error) { return Percentile(xs, 50) }

// Summary captures the aggregate of repeated experiment runs: the mean and a
// 95% confidence interval half-width, as reported for every experiment in
// Section 5.1 ("The 95% of the confidential interval is reported").
type Summary struct {
	Mean   float64
	CI95   float64 // half-width of the 95% confidence interval
	StdDev float64
	N      int
}

// Summarize computes a Summary over xs using the normal approximation
// (±1.96·s/√n), which is what small fixed-repetition simulation studies use.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	m := Mean(xs)
	// Sample standard deviation (denominator n−1) for the CI.
	var sd float64
	if len(xs) > 1 {
		sum := 0.0
		for _, x := range xs {
			d := x - m
			sum += d * d
		}
		sd = math.Sqrt(sum / float64(len(xs)-1))
	}
	ci := 1.96 * sd / math.Sqrt(float64(len(xs)))
	return Summary{Mean: m, CI95: ci, StdDev: sd, N: len(xs)}, nil
}

// CDFPoint is one point of an empirical cumulative distribution function.
type CDFPoint struct {
	X float64 // value
	P float64 // P(X <= x), in [0,1]
}

// CDF computes the empirical CDF of xs evaluated at each distinct sample
// value, sorted ascending. The final point always has P = 1.
func CDF(xs []float64) []CDFPoint {
	if len(xs) == 0 {
		return nil
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	out := make([]CDFPoint, 0, len(sorted))
	n := float64(len(sorted))
	for i := 0; i < len(sorted); i++ {
		// Collapse runs of equal values into a single point.
		if i+1 < len(sorted) && sorted[i+1] == sorted[i] {
			continue
		}
		out = append(out, CDFPoint{X: sorted[i], P: float64(i+1) / n})
	}
	return out
}

// CDFAt evaluates an empirical CDF (as produced by CDF) at x, returning
// P(X <= x). Values below the smallest sample give 0.
func CDFAt(cdf []CDFPoint, x float64) float64 {
	p := 0.0
	for _, pt := range cdf {
		if pt.X <= x {
			p = pt.P
		} else {
			break
		}
	}
	return p
}

// Normalize scales xs so they sum to 1, matching the paper's reputation
// normalization Ri/ΣRk. If the sum is zero it returns a uniform distribution;
// if the sum is negative it returns an error, since reputations feeding the
// normalization are clamped non-negative upstream.
func Normalize(xs []float64) ([]float64, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	out := make([]float64, len(xs))
	if sum == 0 {
		for i := range out {
			out[i] = 1 / float64(len(xs))
		}
		return out, nil
	}
	if sum < 0 {
		return nil, errors.New("stats: normalize over negative total")
	}
	for i, x := range xs {
		out[i] = x / sum
	}
	return out, nil
}

// MinMax returns the smallest and largest values of xs.
func MinMax(xs []float64) (lo, hi float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi, nil
}
