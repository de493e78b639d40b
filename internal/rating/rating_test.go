package rating

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestAddAndCounts(t *testing.T) {
	l := NewLedger(10)
	for k := 0; k < 3; k++ {
		if err := l.Add(Rating{Rater: 1, Ratee: 2, Value: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Add(Rating{Rater: 1, Ratee: 2, Value: -1}); err != nil {
		t.Fatal(err)
	}
	c := l.Counts(1, 2)
	if c.Positive != 3 || c.Negative != 1 || c.Total() != 4 {
		t.Fatalf("Counts = %+v", c)
	}
	if got := l.Counts(2, 1); got.Total() != 0 {
		t.Fatal("reverse direction should be empty")
	}
	if l.IntervalSize() != 4 {
		t.Fatalf("IntervalSize = %d", l.IntervalSize())
	}
}

func TestZeroValueRatingNotCounted(t *testing.T) {
	l := NewLedger(4)
	if err := l.Add(Rating{Rater: 0, Ratee: 1, Value: 0}); err != nil {
		t.Fatal(err)
	}
	c := l.Counts(0, 1)
	if c.Positive != 0 || c.Negative != 0 {
		t.Fatalf("zero-value rating affected counters: %+v", c)
	}
	if l.IntervalSize() != 1 {
		t.Fatal("zero-value rating should still be stored")
	}
}

func TestSelfRatingRejected(t *testing.T) {
	l := NewLedger(4)
	if err := l.Add(Rating{Rater: 2, Ratee: 2, Value: 1}); err == nil {
		t.Fatal("self-rating should be rejected")
	}
	if l.IntervalSize() != 0 {
		t.Fatal("rejected rating was stored")
	}
}

func TestAddPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewLedger(2).Add(Rating{Rater: 0, Ratee: 5, Value: 1}) //nolint:errcheck
}

func TestEndIntervalDrains(t *testing.T) {
	l := NewLedger(8)
	l.Add(Rating{Rater: 0, Ratee: 1, Value: 1})  //nolint:errcheck
	l.Add(Rating{Rater: 0, Ratee: 7, Value: -1}) //nolint:errcheck
	l.Add(Rating{Rater: 3, Ratee: 1, Value: 1})  //nolint:errcheck
	snap := l.EndInterval()
	if len(snap.Ratings) != 3 {
		t.Fatalf("drained %d ratings", len(snap.Ratings))
	}
	// Deterministic order: sorted by ratee.
	for i := 1; i < len(snap.Ratings); i++ {
		if snap.Ratings[i].Ratee < snap.Ratings[i-1].Ratee {
			t.Fatalf("ratings not sorted by ratee: %+v", snap.Ratings)
		}
	}
	if c := snap.Counts[PairKey{0, 1}]; c.Positive != 1 {
		t.Fatalf("snapshot counts = %+v", snap.Counts)
	}
	// Ledger is now empty.
	if l.IntervalSize() != 0 {
		t.Fatal("ledger not drained")
	}
	if c := l.Counts(0, 1); c.Total() != 0 {
		t.Fatal("counters not reset")
	}
	empty := l.EndInterval()
	if len(empty.Ratings) != 0 || len(empty.Counts) != 0 {
		t.Fatal("second drain should be empty")
	}
}

func TestConcurrentAdds(t *testing.T) {
	l := NewLedger(64)
	var wg sync.WaitGroup
	const workers, per = 16, 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < per; k++ {
				ratee := (w + k%63 + 1) % 64                    // never equals w: offset in [1,63]
				l.Add(Rating{Rater: w, Ratee: ratee, Value: 1}) //nolint:errcheck
			}
		}(w)
	}
	wg.Wait()
	if got := l.IntervalSize(); got != workers*per {
		t.Fatalf("IntervalSize = %d, want %d", got, workers*per)
	}
	snap := l.EndInterval()
	if len(snap.Ratings) != workers*per {
		t.Fatalf("drained %d", len(snap.Ratings))
	}
}

func TestFrequencies(t *testing.T) {
	counts := map[PairKey]PairCounts{
		{0, 1}: {Positive: 4},
		{2, 1}: {Positive: 2, Negative: 1},
		{3, 4}: {Negative: 3},
	}
	fs := Frequencies(counts)
	if fs.Pairs != 3 {
		t.Fatalf("Pairs = %d", fs.Pairs)
	}
	if fs.MeanPositive != 3 || fs.MaxPositive != 4 || fs.MinPositive != 2 {
		t.Fatalf("positive stats = %+v", fs)
	}
	if fs.MeanNegative != 2 || fs.MaxNegative != 3 || fs.MinNegative != 1 {
		t.Fatalf("negative stats = %+v", fs)
	}
	empty := Frequencies(nil)
	if empty.Pairs != 0 || empty.MeanPositive != 0 {
		t.Fatalf("empty Frequencies = %+v", empty)
	}
}

// --- properties ---

func TestLedgerConservationProperty(t *testing.T) {
	// Every added rating is drained exactly once and counters agree with
	// the sign of values.
	f := func(events []uint16) bool {
		const n = 12
		l := NewLedger(n)
		wantPos, wantNeg := map[PairKey]int{}, map[PairKey]int{}
		added := 0
		for _, e := range events {
			rater, ratee := int(e%n), int((e/n)%n)
			if rater == ratee {
				continue
			}
			val := 1.0
			if e%2 == 0 {
				val = -1
			}
			if err := l.Add(Rating{Rater: rater, Ratee: ratee, Value: val}); err != nil {
				return false
			}
			added++
			k := PairKey{rater, ratee}
			if val > 0 {
				wantPos[k]++
			} else {
				wantNeg[k]++
			}
		}
		snap := l.EndInterval()
		if len(snap.Ratings) != added {
			return false
		}
		for k, want := range wantPos {
			if snap.Counts[k].Positive != want {
				return false
			}
		}
		for k, want := range wantNeg {
			if snap.Counts[k].Negative != want {
				return false
			}
		}
		return l.IntervalSize() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAddBatchMatchesSequentialAdds(t *testing.T) {
	const n = 200
	trace := make([]Rating, 0, 1000)
	for i := 0; i < 1000; i++ {
		r := Rating{Rater: (i * 13) % n, Ratee: (i * 7) % n, Value: 1, Cycle: i / 100}
		if i%3 == 0 {
			r.Value = -1
		}
		if r.Rater == r.Ratee {
			r.Ratee = (r.Ratee + 1) % n
		}
		trace = append(trace, r)
	}
	seq := NewLedger(n)
	for _, r := range trace {
		if err := seq.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	batched := NewLedger(n)
	// Uneven chunks cross internal-shard boundaries and exercise regrowth.
	for lo := 0; lo < len(trace); lo += 137 {
		hi := lo + 137
		if hi > len(trace) {
			hi = len(trace)
		}
		if errs := batched.AddBatch(trace[lo:hi]); errs != nil {
			t.Fatalf("AddBatch: %v", errs)
		}
	}
	want, got := seq.EndInterval(), batched.EndInterval()
	if len(got.Ratings) != len(want.Ratings) {
		t.Fatalf("ratings: got %d, want %d", len(got.Ratings), len(want.Ratings))
	}
	for i := range want.Ratings {
		if got.Ratings[i] != want.Ratings[i] {
			t.Fatalf("ratings[%d]: got %+v, want %+v", i, got.Ratings[i], want.Ratings[i])
		}
	}
	if len(got.Counts) != len(want.Counts) {
		t.Fatalf("counts: got %d pairs, want %d", len(got.Counts), len(want.Counts))
	}
	for k, v := range want.Counts {
		if got.Counts[k] != v {
			t.Fatalf("counts[%v]: got %+v, want %+v", k, got.Counts[k], v)
		}
	}
}

func TestAddBatchSelfRatingIndexed(t *testing.T) {
	l := NewLedger(10)
	errs := l.AddBatch([]Rating{
		{Rater: 0, Ratee: 1, Value: 1},
		{Rater: 3, Ratee: 3, Value: 1}, // self-rating
		{Rater: 2, Ratee: 4, Value: -1},
	})
	if errs == nil || errs[0] != nil || errs[1] == nil || errs[2] != nil {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if l.IntervalSize() != 2 {
		t.Fatalf("IntervalSize = %d, want 2", l.IntervalSize())
	}
	if l.AddBatch([]Rating{{Rater: 0, Ratee: 2, Value: 1}}) != nil {
		t.Fatal("clean batch should return nil")
	}
}

func TestAddBatchPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on out-of-range ratee")
		}
	}()
	NewLedger(5).AddBatch([]Rating{{Rater: 0, Ratee: 99, Value: 1}})
}
