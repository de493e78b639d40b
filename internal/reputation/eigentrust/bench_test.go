package eigentrust

import (
	"math/rand/v2"
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

// steadyIntervals draws count steady-shaped intervals over nodes peers from
// a fixed seed, each in snapshot order: 1,000 active raters, each with 4
// partners among the other active raters, give 4 ratings an interval, 90%
// of them to a partner and the rest to any other peer, a fifth negative.
func steadyIntervals(nodes, count int) []rating.Snapshot {
	rng := rand.New(rand.NewPCG(3, 4))
	active := rng.Perm(nodes)[:1000]
	partners := make([][4]int, len(active))
	for k := range partners {
		for m := range partners[k] {
			partners[k][m] = active[(k+1+rng.IntN(len(active)-1))%len(active)]
		}
	}
	snaps := make([]rating.Snapshot, count)
	for t := range snaps {
		var rs []rating.Rating
		for k, i := range active {
			for r := 0; r < 4; r++ {
				j := partners[k][rng.IntN(4)]
				if rng.Float64() >= 0.9 {
					if j = rng.IntN(nodes - 1); j >= i {
						j++
					}
				}
				v := 1.0
				if rng.Float64() < 0.2 {
					v = -1
				}
				rs = append(rs, rating.Rating{Rater: i, Ratee: j, Value: v})
			}
		}
		snaps[t] = rating.Snapshot{Ratings: rating.SnapshotOrder(rs)}
	}
	return snaps
}

// BenchmarkEngineUpdate times one interval's Update — fold, CSR refresh and
// power iteration. The bulk-cluster case repeats that workload's interval in
// snapshot order on a warm engine: 10k raters giving 40 ratings each to 4
// partners (a fifth negative) and 50 colluding couples rating each other 120
// times, about 412k ratings over 40k pairs. The steady case is that
// workload's EigenTrust layer: each round builds a fresh 50k-node engine
// under uniform pretrust, feeds it 2 warm-up steadyIntervals untimed and 6
// timed, and reports ns per timed update. Over those 8 updates, 97% to 93%
// of the nodes neither rate nor are rated; they sit in 1,400 to 3,300 idle
// runs.
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
	b.Run("steady", func(b *testing.B) {
		const nodes, warmup = 50000, 2
		snaps := steadyIntervals(nodes, warmup+6)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			e := New(Config{NumNodes: nodes})
			for _, s := range snaps[:warmup] {
				e.Update(s)
			}
			b.StartTimer()
			for _, s := range snaps[warmup:] {
				e.Update(s)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*(len(snaps)-warmup)), "ns/update")
	})
}
