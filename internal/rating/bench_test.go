package rating

import (
	"math/rand/v2"
	"sync"
	"testing"
)

func BenchmarkLedgerAddSerial(b *testing.B) {
	l := NewLedger(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Add(Rating{Rater: i % 1000, Ratee: (i + 1) % 1000, Value: 1}) //nolint:errcheck
	}
}

func BenchmarkLedgerAddParallel(b *testing.B) {
	l := NewLedger(1000)
	var ctr sync.Mutex
	next := 0
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		ctr.Lock()
		base := next
		next += 1000003
		ctr.Unlock()
		i := base
		for pb.Next() {
			l.Add(Rating{Rater: i % 1000, Ratee: (i + 1) % 1000, Value: 1}) //nolint:errcheck
			i++
		}
	})
}

// BenchmarkEndInterval times the drain. The small case is one ledger of 10k
// ratings over 1k nodes. The bulk-cluster case is that workload's interval:
// 412k shuffled ratings over 10k nodes (10k raters giving 40 ratings each to
// 4 partners, and 50 colluding couples rating each other 120 times), split by
// ratee over 16 ledgers as the overlay's shards hold them; one op drains all
// 16.
func BenchmarkEndInterval(b *testing.B) {
	b.Run("10k-ratings-1k-nodes", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			l := NewLedger(1000)
			for k := 0; k < 10000; k++ {
				l.Add(Rating{Rater: k % 1000, Ratee: (k + 7) % 1000, Value: 1}) //nolint:errcheck
			}
			b.StartTimer()
			l.EndInterval()
		}
	})
	b.Run("bulk-cluster", func(b *testing.B) {
		const nodes, shards = 10000, 16
		parts := make([][]Rating, shards)
		for _, r := range bulkInterval(nodes) {
			parts[r.Ratee%shards] = append(parts[r.Ratee%shards], r)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			ledgers := make([]*Ledger, shards)
			for s := range ledgers {
				ledgers[s] = NewLedger(nodes)
				if errs := ledgers[s].AddBatch(parts[s]); errs != nil {
					b.Fatal(errs)
				}
			}
			b.StartTimer()
			for _, l := range ledgers {
				l.EndInterval()
			}
		}
	})
}

// bulkInterval draws one bulk-cluster-shaped interval over nodes peers from a
// fixed seed: each peer rates 4 partners 40 times in all (a fifth of the
// ratings negative, categories uniform over 16), 50 couples add 120 ratings
// each way, and the trace is shuffled and sequenced.
func bulkInterval(nodes int) []Rating {
	rng := rand.New(rand.NewPCG(1, 2))
	var trace []Rating
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
			trace = append(trace, Rating{Rater: i, Ratee: partners[rng.IntN(4)], Value: v, Cycle: 3, Category: rng.IntN(16)})
		}
	}
	for c := 0; c < 50; c++ {
		a, p := 2*c, 2*c+1
		for k := 0; k < 120; k++ {
			trace = append(trace,
				Rating{Rater: a, Ratee: p, Value: 1, Cycle: 3, Category: rng.IntN(16)},
				Rating{Rater: p, Ratee: a, Value: 1, Cycle: 3, Category: rng.IntN(16)})
		}
	}
	rng.Shuffle(len(trace), func(a, b int) { trace[a], trace[b] = trace[b], trace[a] })
	for k := range trace {
		trace[k].Seq = uint64(k + 1)
	}
	return trace
}
