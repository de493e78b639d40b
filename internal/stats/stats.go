// Package stats implements the descriptive statistics the paper's trace
// analysis and evaluation rely on: the squared correlation coefficient used
// in Section 3 (C = sxy²/(sxx·syy)), percentiles and confidence intervals.
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
