package manager

import (
	"testing"

	"socialtrust/internal/fault"
	"socialtrust/internal/rating"
	"socialtrust/internal/rating/ratingtest"
	"socialtrust/internal/reputation/ebay"
)

// BenchmarkOverlaySubmit measures the overlay's rating-submission round trip
// (client → shard mailbox → ledger → ack).
func BenchmarkOverlaySubmit(b *testing.B) {
	o, err := New(256, 8, ebay.New(256))
	if err != nil {
		b.Fatal(err)
	}
	defer o.Close()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			r := rating.Rating{Rater: i % 256, Ratee: (i + 1) % 256, Value: 1, Cycle: i}
			if err := o.Submit(r); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkOverlayQuery measures a reputation query against the published
// vector.
func BenchmarkOverlayQuery(b *testing.B) {
	o, err := New(256, 8, ebay.New(256))
	if err != nil {
		b.Fatal(err)
	}
	defer o.Close()
	o.EndInterval()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			o.Reputation(i % 256)
			i++
		}
	})
}

// BenchmarkOverlaySubmitReplicated measures the fault-tolerant submission
// path with zero injected faults: primary delivery plus replica mirroring
// under deadlines. Compared against BenchmarkOverlaySubmit, it prices the
// hardened path.
func BenchmarkOverlaySubmitReplicated(b *testing.B) {
	o, err := NewWithOptions(256, 8, ebay.New(256), Options{
		Fault: alwaysOnPlan(b, fault.Config{}, 8),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer o.Close()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			r := rating.Rating{Rater: i % 256, Ratee: (i + 1) % 256, Value: 1, Cycle: i}
			if err := o.Submit(r); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// benchTrace prebuilds one interval of spread-out ratings over n nodes so
// the submit benchmarks measure ingest, not trace generation.
func benchTrace(n, count int) []rating.Rating {
	rs := make([]rating.Rating, count)
	for i := range rs {
		rs[i] = rating.Rating{Rater: i % n, Ratee: (i*7 + 1) % n, Value: 1, Cycle: i / n}
	}
	for i := range rs {
		if rs[i].Rater == rs[i].Ratee {
			rs[i].Ratee = (rs[i].Ratee + 1) % n
		}
	}
	return rs
}

// BenchmarkOverlaySubmit10k is the per-rating ingest baseline at 10k nodes /
// 16 shards: one mailbox round trip per rating, over full intervals drained
// outside the timer so ledgers stay at steady-state size. Reported per
// rating for direct comparison with BenchmarkOverlaySubmitBatch.
func BenchmarkOverlaySubmit10k(b *testing.B) {
	const n = 10_000
	o, err := New(n, 16, ebay.New(n))
	if err != nil {
		b.Fatal(err)
	}
	defer o.Close()
	trace := benchTrace(n, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range trace {
			if err := o.Submit(r); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		o.EndInterval()
		b.StartTimer()
	}
	perRating := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(len(trace))
	b.ReportMetric(perRating, "ns/rating")
}

// BenchmarkOverlaySubmitBatch measures batched ingest at 10k nodes: one
// SubmitBatch call per interval over a 4096-rating trace — one mailbox round
// trip per shard instead of one per rating — with the drain outside the
// timer, matching BenchmarkOverlaySubmit10k. The scale acceptance pins the
// batched ns/rating at ≥ 3× faster than the per-rating baseline.
func BenchmarkOverlaySubmitBatch(b *testing.B) {
	const n = 10_000
	o, err := New(n, 16, ebay.New(n))
	if err != nil {
		b.Fatal(err)
	}
	defer o.Close()
	trace := benchTrace(n, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if errs := o.SubmitBatch(trace); errs != nil {
			b.Fatalf("SubmitBatch: %v", errs[0])
		}
		b.StopTimer()
		o.EndInterval()
		b.StartTimer()
	}
	perRating := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(len(trace))
	b.ReportMetric(perRating, "ns/rating")
}

// BenchmarkMergeSnapshots times the coordinator's cross-shard merge on
// bulk-cluster's interval shape: 16 ratee-sharded, ledger-ordered snapshots
// of ratingtest.BulkInterval at 10k nodes (412k ratings).
func BenchmarkMergeSnapshots(b *testing.B) {
	const nodes, shards = 10000, 16
	ledgers := make([]*rating.Ledger, shards)
	for s := range ledgers {
		ledgers[s] = rating.NewLedger(nodes)
	}
	trace := ratingtest.BulkInterval(nodes)
	for _, r := range trace {
		if err := ledgers[r.Ratee%shards].Add(r); err != nil {
			b.Fatal(err)
		}
	}
	snaps := make([]rating.Snapshot, shards)
	for s, l := range ledgers {
		snaps[s] = l.EndInterval()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m := mergeSnapshots(snaps); len(m.Ratings) != len(trace) {
			b.Fatalf("merged %d of %d ratings", len(m.Ratings), len(trace))
		}
	}
}
