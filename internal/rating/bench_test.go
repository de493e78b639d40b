package rating_test

import (
	"sync"
	"testing"

	"socialtrust/internal/rating"
	"socialtrust/internal/rating/ratingtest"
)

// benchDrainEvery bounds the ledger the add benchmarks grow: they drain it
// every benchDrainEvery adds, so ns/op times the append and the lock, not
// the growth of one slice to b.N ratings.
const benchDrainEvery = 10000

func BenchmarkLedgerAddSerial(b *testing.B) {
	l := rating.NewLedger(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%benchDrainEvery == benchDrainEvery-1 {
			b.StopTimer()
			l.EndInterval()
			b.StartTimer()
		}
		l.Add(rating.Rating{Rater: i % 1000, Ratee: (i + 1) % 1000, Value: 1}) //nolint:errcheck
	}
}

// BenchmarkLedgerAddParallel cannot stop the clock for one goroutine's
// drain, so its ns/op includes the drains' snapshot sort.
func BenchmarkLedgerAddParallel(b *testing.B) {
	l := rating.NewLedger(1000)
	var ctr sync.Mutex
	next := 0
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		ctr.Lock()
		base := next
		next += 1000003
		ctr.Unlock()
		i := base
		for pb.Next() {
			if (i-base)%benchDrainEvery == benchDrainEvery-1 {
				l.EndInterval()
			}
			l.Add(rating.Rating{Rater: i % 1000, Ratee: (i + 1) % 1000, Value: 1}) //nolint:errcheck
			i++
		}
	})
}

// BenchmarkEndInterval times the drain. The small case is one ledger of 10k
// ratings over 1k nodes. The bulk-cluster case is that workload's interval
// (ratingtest.BulkInterval at 10k nodes, 412k ratings) split by ratee over
// 16 ledgers as the overlay's shards hold them; one op drains all 16.
func BenchmarkEndInterval(b *testing.B) {
	b.Run("10k-ratings-1k-nodes", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			l := rating.NewLedger(1000)
			for k := 0; k < 10000; k++ {
				l.Add(rating.Rating{Rater: k % 1000, Ratee: (k + 7) % 1000, Value: 1}) //nolint:errcheck
			}
			b.StartTimer()
			l.EndInterval()
		}
	})
	b.Run("bulk-cluster", func(b *testing.B) {
		const nodes, shards = 10000, 16
		trace := ratingtest.BulkInterval(nodes)
		parts := make([][]rating.Rating, shards)
		for _, r := range trace {
			parts[r.Ratee%shards] = append(parts[r.Ratee%shards], r)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			ledgers := make([]*rating.Ledger, shards)
			for s := range ledgers {
				ledgers[s] = rating.NewLedger(nodes)
				if errs := ledgers[s].AddBatch(parts[s]); errs != nil {
					b.Fatal(errs)
				}
			}
			b.StartTimer()
			drained := 0
			for _, l := range ledgers {
				drained += len(l.EndInterval().Ratings)
			}
			if drained != len(trace) {
				b.Fatalf("drained %d of %d ratings", drained, len(trace))
			}
		}
	})
}
