package eigentrust

import (
	"testing"

	"socialtrust/internal/rating"
	"socialtrust/internal/rating/ratingtest"
)

func benchSnapshot(n int) rating.Snapshot {
	var rs []rating.Rating
	for i := 0; i < n; i++ {
		for d := 1; d <= 5; d++ {
			rs = append(rs, rating.Rating{Rater: i, Ratee: (i + d) % n, Value: float64(d%3) - 1})
		}
	}
	return rating.Snapshot{Ratings: rs}
}

func benchmarkPowerIteration(b *testing.B, n, workers int) {
	snap := benchSnapshot(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := New(Config{NumNodes: n, Pretrusted: []int{0, 1, 2}, Workers: workers})
		e.Update(snap)
	}
}

func BenchmarkPowerIterationSerial500(b *testing.B)   { benchmarkPowerIteration(b, 500, 1) }
func BenchmarkPowerIterationParallel500(b *testing.B) { benchmarkPowerIteration(b, 500, 4) }

// BenchmarkEngineUpdate times one interval's Update — fold, CSR refresh and
// power iteration — on a warm engine. The bulk-cluster case is that
// workload's interval in snapshot order: 10k raters giving 40 ratings each
// to 4 partners (a fifth negative) and 50 colluding couples rating each other
// 120 times, about 412k ratings over 40k pairs.
func BenchmarkEngineUpdate(b *testing.B) {
	b.Run("bulk-cluster", func(b *testing.B) {
		const nodes = 10000
		snap := rating.Snapshot{Ratings: rating.SnapshotOrder(ratingtest.BulkInterval(nodes))}
		e := New(Config{NumNodes: nodes, Pretrusted: []int{0, 1, 2}})
		e.Update(snap)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Update(snap)
		}
	})
}
