package persist

import (
	"path/filepath"
	"testing"
)

// BenchmarkWALAppend prices the durability hot path: one batched Append of a
// query cycle's worth of rating records, framed, checksummed, and flushed to
// the OS before returning — the cost every acknowledged rating pays in a
// durable run, reported as ns/rating.
func BenchmarkWALAppend(b *testing.B) {
	w, _, err := Open(filepath.Join(b.TempDir(), "bench.wal"), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	const batch = 256
	recs := make([]Record, batch)
	for i := range recs {
		recs[i] = Record{
			Kind: KindRating, Rater: int32(i), Ratee: int32(i + 1),
			Cycle: 1, Category: 3, Value: 1,
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range recs {
			recs[j].Seq = uint64(i*batch + j + 1)
		}
		if err := w.Append(recs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(secs*1e9/float64(b.N*batch), "ns/rating")
	}
}
