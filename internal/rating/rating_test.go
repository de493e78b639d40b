package rating

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

// pairCounts maps each pair of a drained snapshot to the counters its run
// carries.
func pairCounts(snap Snapshot) map[PairKey]PairCounts {
	m := map[PairKey]PairCounts{}
	for _, run := range PairRuns(snap.Ratings, nil) {
		m[run.PairKey] = run.PairCounts
	}
	return m
}

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
	snap := l.EndInterval()
	if len(snap.Ratings) != 4 {
		t.Fatalf("drained %d ratings", len(snap.Ratings))
	}
	counts := pairCounts(snap)
	c := counts[PairKey{1, 2}]
	if c.Positive != 3 || c.Negative != 1 || c.Total() != 4 {
		t.Fatalf("Counts = %+v", c)
	}
	if _, ok := counts[PairKey{2, 1}]; ok || len(counts) != 1 {
		t.Fatalf("reverse direction should be empty: %+v", counts)
	}
}

func TestZeroValueRatingNotCounted(t *testing.T) {
	l := NewLedger(4)
	if err := l.Add(Rating{Rater: 0, Ratee: 1, Value: 0}); err != nil {
		t.Fatal(err)
	}
	snap := l.EndInterval()
	if len(snap.Ratings) != 1 {
		t.Fatal("zero-value rating should still be stored")
	}
	c, ok := pairCounts(snap)[PairKey{0, 1}]
	if !ok || c.Positive != 0 || c.Negative != 0 {
		t.Fatalf("zero-value rating affected counters: %+v (pair present %v)", c, ok)
	}
}

func TestSelfRatingRejected(t *testing.T) {
	l := NewLedger(4)
	if err := l.Add(Rating{Rater: 2, Ratee: 2, Value: 1}); err == nil {
		t.Fatal("self-rating should be rejected")
	}
	if len(l.EndInterval().Ratings) != 0 {
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
	if counts := pairCounts(snap); counts[PairKey{0, 1}].Positive != 1 {
		t.Fatalf("snapshot counts = %+v", counts)
	}
	// Ledger is now empty.
	empty := l.EndInterval()
	if len(empty.Ratings) != 0 || len(PairRuns(empty.Ratings, nil)) != 0 {
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
	snap := l.EndInterval()
	if len(snap.Ratings) != workers*per {
		t.Fatalf("drained %d", len(snap.Ratings))
	}
}

// TestConcurrentAddBatchAndDrain batches ratings into one ledger from
// several goroutines while another drains it, and checks that every rating
// is drained exactly once.
func TestConcurrentAddBatchAndDrain(t *testing.T) {
	l := NewLedger(64)
	const workers, batches, per = 4, 50, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				rs := make([]Rating, per)
				for k := range rs {
					rs[k] = Rating{Rater: w, Ratee: (w + 1 + k) % 64, Value: 1, Seq: uint64((w*batches+b)*per + k + 1)}
				}
				if errs := l.AddBatch(rs); errs != nil {
					t.Errorf("AddBatch: %v", errs)
				}
			}
		}(w)
	}
	done := make(chan struct{})
	seen := map[uint64]int{}
	go func() {
		defer close(done)
		for k := 0; k < 100; k++ {
			for _, r := range l.EndInterval().Ratings {
				seen[r.Seq]++
			}
		}
	}()
	wg.Wait()
	<-done
	for _, r := range l.EndInterval().Ratings {
		seen[r.Seq]++
	}
	if len(seen) != workers*batches*per {
		t.Fatalf("drained %d distinct ratings, want %d", len(seen), workers*batches*per)
	}
	for seq, n := range seen {
		if n != 1 {
			t.Fatalf("seq %d drained %d times", seq, n)
		}
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
		counts := pairCounts(snap)
		for k, want := range wantPos {
			if counts[k].Positive != want {
				return false
			}
		}
		for k, want := range wantNeg {
			if counts[k].Negative != want {
				return false
			}
		}
		return len(l.EndInterval().Ratings) == 0
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
	gotCounts, wantCounts := pairCounts(got), pairCounts(want)
	if len(gotCounts) != len(wantCounts) {
		t.Fatalf("counts: got %d pairs, want %d", len(gotCounts), len(wantCounts))
	}
	for k, v := range wantCounts {
		if gotCounts[k] != v {
			t.Fatalf("counts[%v]: got %+v, want %+v", k, gotCounts[k], v)
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
	if n := len(l.EndInterval().Ratings); n != 2 {
		t.Fatalf("drained %d ratings, want 2", n)
	}
	if l.AddBatch([]Rating{{Rater: 0, Ratee: 2, Value: 1}}) != nil {
		t.Fatal("clean batch should return nil")
	}
}

// TestNonFiniteValueRejected checks that Add and AddBatch refuse NaN and
// infinite values per entry and keep the finite ratings of the same batch.
func TestNonFiniteValueRejected(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		l := NewLedger(4)
		if err := l.Add(Rating{Rater: 0, Ratee: 1, Value: v, Seq: 1}); err == nil {
			t.Errorf("Add accepted value %v", v)
		}
		good := Rating{Rater: 2, Ratee: 3, Value: 1, Seq: 3}
		errs := l.AddBatch([]Rating{{Rater: 0, Ratee: 1, Value: v, Seq: 2}, good})
		if errs == nil || errs[0] == nil || errs[1] != nil {
			t.Errorf("AddBatch with value %v: errors %v, want only the first entry rejected", v, errs)
		}
		if snap := l.EndInterval(); len(snap.Ratings) != 1 || snap.Ratings[0] != good {
			t.Errorf("value %v: drained %v, want only %v", v, snap.Ratings, good)
		}
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
