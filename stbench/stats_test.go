package main

import (
	"math"
	"testing"
	"time"

	"socialtrust/internal/obs/span"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
}

// The expected cut points are Python's statistics.quantiles(xs, n=4), the
// rule the benchmark's spread is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9, 7, 2.5, 4.75}, [3]float64{2.1875, 4.125, 7.5}},
	} {
		q1, q2, q3, err := quartiles(c.in)
		if err != nil {
			t.Fatal(err)
		}
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one sample should fail")
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // reversed: percentile must sort
	}
	p99, err := percentile(xs, 99)
	if err != nil {
		t.Fatal(err)
	}
	if p99 != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", p99)
	}
	if _, err := percentile(xs[:999], 99); err == nil {
		t.Error("p99 of 999 samples leaves 9 beyond it and should be refused")
	}
	if p50, err := percentile(xs[:20], 50); err != nil || p50 != 990 {
		t.Errorf("p50 of 20 samples = %v, %v; want 990", p50, err)
	}
	if _, err := percentile(xs[:19], 50); err == nil {
		t.Error("p50 of 19 samples leaves 9 beyond it and should be refused")
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("percentile of no samples should fail")
	}
}

func TestDigestIsBitExact(t *testing.T) {
	a := []float64{0.25, 0.5, 0.25}
	if digest(a) != digest([]float64{0.25, 0.5, 0.25}) {
		t.Error("equal vectors must share a digest")
	}
	b := []float64{0.25, math.Nextafter(0.5, 1), 0.25}
	if digest(a) == digest(b) {
		t.Error("a one-ulp change must change the digest")
	}
	if digest([]float64{0}) == digest([]float64{math.Copysign(0, -1)}) {
		t.Error("+0 and -0 must differ")
	}
	if digest(a) == digest([]float64{0.25, 0.25, 0.5}) {
		t.Error("order must matter")
	}
}

func TestCoveredCountsOnlyOutermostProgramSpans(t *testing.T) {
	spans := []span.Span{
		{ID: 1, Name: "bench.interval", DurUS: 1000},
		{ID: 2, Parent: 1, Name: "manager.SubmitBatch", DurUS: 100},
		{ID: 3, Parent: 2, Name: "manager.submit_batch", DurUS: 90},
		{ID: 4, Parent: 3, Name: "shard.deliver_batch", DurUS: 80},
		{ID: 5, Parent: 1, Name: "manager.EndIntervalStatus", DurUS: 800},
		{ID: 6, Parent: 5, Name: "manager.drain_shards", DurUS: 200},
		// Parallel shard drains under the drain span are not counted again.
		{ID: 7, Parent: 6, Name: "shard.drain", DurUS: 150},
		{ID: 8, Parent: 6, Name: "shard.drain", DurUS: 150},
		{ID: 9, Parent: 5, Name: "core.Update", DurUS: 500},
		{ID: 10, Parent: 9, Name: "core.adjust", DurUS: 300},
		{ID: 11, Parent: 9, Name: "eigentrust.Update", DurUS: 150},
		{ID: 12, Parent: 11, Name: "eigentrust.update", DurUS: 140},
		{ID: 13, Parent: 5, Name: "manager.broadcast", DurUS: 50},
	}
	// 90 + 200 + 300 + 140 + 50: the benchmark's spans' own remainders and
	// the program's code outside its spans stay uncovered.
	if got, want := covered(spans), 780*time.Microsecond; got != want {
		t.Errorf("covered = %v, want %v", got, want)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span.Span{
		{ID: 1, Name: "bench.interval", DurUS: 1000},
		{ID: 2, Parent: 1, Name: "manager.EndIntervalStatus", DurUS: 900},
		{ID: 3, Parent: 2, Name: "core.Update", DurUS: 600},
		{ID: 4, Parent: 3, Name: "eigentrust.Update", DurUS: 200},
		{ID: 5, Parent: 3, Name: "core.adjust", DurUS: 300},
		// Two parallel children covering more than their parent.
		{ID: 6, Parent: 5, Name: "adjust.signals", DurUS: 250},
		{ID: 7, Parent: 5, Name: "adjust.signals", DurUS: 250},
	}
	got := selfTimes(spans)
	want := map[string]float64{
		"bench.interval":            100e-6,
		"manager.EndIntervalStatus": 300e-6,
		"core.Update":               100e-6,
		"eigentrust.Update":         200e-6,
		"core.adjust":               0,
		"adjust.signals":            500e-6,
	}
	for name, w := range want {
		if math.Abs(got[name]-w) > 1e-12 {
			t.Errorf("self(%s) = %v, want %v", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got %d names, want %d", len(got), len(want))
	}
}
