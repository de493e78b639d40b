package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"time"

	"socialtrust/internal/obs/span"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// median returns the middle of xs (the mean of the two middle values for an
// even count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points of xs as Python's
// statistics.quantiles(xs, n=4) gives them (its default "exclusive"
// method). It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	if len(xs) < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 samples, have %d", len(xs))
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) + 1
	cut := func(i int) float64 {
		j := max(1, min(i*m/4, len(s)-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3), nil
}

// percentile returns the nearest-rank p-th percentile of xs. It refuses to
// report one with fewer than minTail samples beyond it, where a single
// outlier would decide the value.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if n == 0 || rank < 1 || n-rank < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d samples beyond it, need %d", p, n, max(0, n-rank), minTail)
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank-1], nil
}

// digest fingerprints a reputation vector bit for bit.
func digest(reps []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range reps {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// driverSpans are the spans the benchmark records around its calls into
// the program. Every other span is the program's own.
var driverSpans = map[string]bool{
	"bench.interval":            true,
	"manager.SubmitBatch":       true,
	"manager.Query":             true,
	"manager.EndIntervalStatus": true,
	"core.Update":               true,
	"eigentrust.Update":         true,
}

// covered is the time the program's own spans account for among one
// interval's spans: the summed durations of its outermost spans, those whose
// parent is a benchmark span. The rest of a benchmark span is the
// benchmark's own overhead or program code without a span, so it stays
// uncovered.
func covered(spans []span.Span) time.Duration {
	driver := make(map[uint64]bool)
	for _, s := range spans {
		if driverSpans[s.Name] {
			driver[s.ID] = true
		}
	}
	var us int64
	for _, s := range spans {
		if !driverSpans[s.Name] && driver[s.Parent] {
			us += s.DurUS
		}
	}
	return time.Duration(us) * time.Microsecond
}

// selfTimes sums, per span name, each span's duration minus the part its
// children cover, in seconds. Children that ran in parallel can cover more
// than their parent; such a parent's self time counts as zero.
func selfTimes(spans []span.Span) map[string]float64 {
	children := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] += s.DurUS
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		self := s.DurUS - children[s.ID]
		out[s.Name] += float64(max(self, 0)) / 1e6
	}
	return out
}
