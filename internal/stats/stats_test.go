package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestCorrelationPerfectLinear(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	c, err := Correlation(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(c, 1, 1e-12) {
		t.Errorf("Correlation of perfect line = %v, want 1", c)
	}
	// Perfect negative correlation also yields C = 1 (C is r squared).
	neg := []float64{10, 8, 6, 4, 2}
	c, err = Correlation(xs, neg)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(c, 1, 1e-12) {
		t.Errorf("Correlation of negative line = %v, want 1", c)
	}
}

func TestCorrelationIndependent(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{1, -1, 1, -1} // mean-zero alternating, near-zero covariance with xs
	c, err := Correlation(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if c > 0.25 {
		t.Errorf("Correlation of unrelated data = %v, want small", c)
	}
}

func TestCorrelationErrors(t *testing.T) {
	if _, err := Correlation([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := Correlation([]float64{1}, []float64{2}); err == nil {
		t.Error("single sample should error")
	}
	if _, err := Correlation([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Error("constant xs should error")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct {
		p, want float64
	}{
		{0, 15}, {100, 50}, {50, 35}, {25, 20},
	}
	for _, c := range cases {
		got, err := Percentile(xs, c.p)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if _, err := Percentile(nil, 50); err != ErrEmpty {
		t.Error("empty percentile should return ErrEmpty")
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Error("out-of-range p should error")
	}
	got, err := Percentile([]float64{7}, 99)
	if err != nil || got != 7 {
		t.Errorf("single-sample percentile = %v (%v), want 7", got, err)
	}
}

func TestPercentileInterpolates(t *testing.T) {
	got, err := Percentile([]float64{0, 10}, 25)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 2.5, 1e-12) {
		t.Errorf("Percentile interpolation = %v, want 2.5", got)
	}
}

func TestMedian(t *testing.T) {
	got, err := Median([]float64{9, 1, 5})
	if err != nil || got != 5 {
		t.Errorf("Median = %v (%v), want 5", got, err)
	}
}

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{10, 10, 10, 10, 10})
	if err != nil {
		t.Fatal(err)
	}
	if s.Mean != 10 || s.CI95 != 0 || s.N != 5 {
		t.Errorf("constant Summarize = %+v", s)
	}
	s, err = Summarize([]float64{8, 12})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(s.Mean, 10, 1e-12) {
		t.Errorf("Mean = %v, want 10", s.Mean)
	}
	// sample sd = sqrt(((−2)²+2²)/1) = 2.828..., CI = 1.96·sd/√2
	wantCI := 1.96 * math.Sqrt(8) / math.Sqrt2
	if !almostEqual(s.CI95, wantCI, 1e-9) {
		t.Errorf("CI95 = %v, want %v", s.CI95, wantCI)
	}
	if _, err := Summarize(nil); err != ErrEmpty {
		t.Error("empty Summarize should return ErrEmpty")
	}
}

func TestMinMax(t *testing.T) {
	lo, hi, err := MinMax([]float64{3, -1, 7, 2})
	if err != nil || lo != -1 || hi != 7 {
		t.Errorf("MinMax = %v,%v (%v)", lo, hi, err)
	}
	if _, _, err := MinMax(nil); err != ErrEmpty {
		t.Error("empty MinMax should return ErrEmpty")
	}
}

// --- property-based tests ---

func TestCorrelationBoundedProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 4 {
			return true
		}
		n := len(raw) / 2
		xs, ys := raw[:n], raw[n:2*n]
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true
			}
		}
		c, err := Correlation(xs, ys)
		if err != nil {
			return true
		}
		return c >= -1e-9 && c <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileWithinRangeProperty(t *testing.T) {
	f := func(raw []float64, pRaw uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		p := float64(pRaw) / 255 * 100
		got, err := Percentile(xs, p)
		if err != nil {
			return false
		}
		lo, hi, _ := MinMax(xs)
		return got >= lo-1e-9 && got <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
