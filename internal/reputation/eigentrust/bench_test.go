package eigentrust

import (
	"math/rand/v2"
	"testing"

	"socialtrust/internal/rating"
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
		snap := rating.Snapshot{Ratings: rating.SnapshotOrder(bulkRatings(nodes))}
		e := New(Config{NumNodes: nodes, Pretrusted: []int{0, 1, 2}})
		e.Update(snap)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Update(snap)
		}
	})
}

// bulkRatings draws one bulk-cluster-shaped interval over nodes peers from a
// fixed seed, shuffled as the shards receive it.
func bulkRatings(nodes int) []rating.Rating {
	rng := rand.New(rand.NewPCG(1, 2))
	var rs []rating.Rating
	for i := 0; i < nodes; i++ {
		var partners [4]int
		for k := range partners {
			partners[k] = (i + 1 + rng.IntN(nodes-1)) % nodes
		}
		for k := 0; k < 40; k++ {
			v := 1.0
			if rng.Float64() < 0.2 {
				v = -1
			}
			rs = append(rs, rating.Rating{Rater: i, Ratee: partners[rng.IntN(4)], Value: v, Cycle: 3, Category: rng.IntN(16)})
		}
	}
	for c := 0; c < 50; c++ {
		a, p := 2*c, 2*c+1
		for k := 0; k < 120; k++ {
			rs = append(rs,
				rating.Rating{Rater: a, Ratee: p, Value: 1, Cycle: 3, Category: rng.IntN(16)},
				rating.Rating{Rater: p, Ratee: a, Value: 1, Cycle: 3, Category: rng.IntN(16)})
		}
	}
	rng.Shuffle(len(rs), func(a, b int) { rs[a], rs[b] = rs[b], rs[a] })
	return rs
}
