package manager

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"socialtrust/internal/fault"
	"socialtrust/internal/rating"
	"socialtrust/internal/reputation/ebay"
	"socialtrust/internal/reputation/eigentrust"
	"socialtrust/internal/xrand"
)

// batchTrace builds a reproducible mixed batch of ratings over n nodes.
func batchTrace(seed uint64, n, count int) []rating.Rating {
	rng := xrand.New(seed)
	rs := make([]rating.Rating, 0, count)
	for i := 0; i < count; i++ {
		rater := rng.Intn(n)
		ratee := rng.Intn(n)
		if ratee == rater {
			ratee = (ratee + 1) % n
		}
		v := 1.0
		if rng.Float64() < 0.25 {
			v = -1
		}
		rs = append(rs, rating.Rating{Rater: rater, Ratee: ratee, Value: v, Cycle: i / 50})
	}
	return rs
}

// TestSubmitBatchMatchesPerRatingSubmit pins the batched path's semantics:
// the same trace ingested via SubmitBatch and via one Submit per rating must
// produce identical merged interval snapshots and identical reputations.
func TestSubmitBatchMatchesPerRatingSubmit(t *testing.T) {
	const n, k = 120, 8
	trace := batchTrace(3, n, 2000)

	single, err := New(n, k, ebay.New(n))
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	for _, r := range trace {
		if err := single.Submit(r); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	wantReps := single.EndInterval()

	batched, err := New(n, k, ebay.New(n))
	if err != nil {
		t.Fatal(err)
	}
	defer batched.Close()
	// Uneven chunk sizes exercise partial shard coverage per call.
	for lo := 0; lo < len(trace); lo += 317 {
		hi := lo + 317
		if hi > len(trace) {
			hi = len(trace)
		}
		if errs := batched.SubmitBatch(trace[lo:hi]); errs != nil {
			t.Fatalf("SubmitBatch: %v", errs)
		}
	}
	gotReps := batched.EndInterval()

	if !reflect.DeepEqual(gotReps, wantReps) {
		t.Fatalf("batched reputations diverge from per-rating submit")
	}
}

// TestSubmitBatchReplicatedMatchesPerRating runs the same equivalence under
// an armed (but quiet) fault plan: replica mirroring, retry machinery and
// per-rating verdict draws active on both paths.
func TestSubmitBatchReplicatedMatchesPerRating(t *testing.T) {
	const n, k = 120, 8
	trace := batchTrace(7, n, 1500)

	run := func(batch bool) []float64 {
		o, err := NewWithOptions(n, k, ebay.New(n), Options{Fault: alwaysOnPlan(t, fault.Config{}, k)})
		if err != nil {
			t.Fatal(err)
		}
		defer o.Close()
		if batch {
			if errs := o.SubmitBatch(trace); errs != nil {
				t.Fatalf("SubmitBatch: %v", errs)
			}
		} else {
			for _, r := range trace {
				if err := o.Submit(r); err != nil {
					t.Fatalf("Submit: %v", err)
				}
			}
		}
		return o.EndInterval()
	}

	if got, want := run(true), run(false); !reflect.DeepEqual(got, want) {
		t.Fatalf("replicated batched reputations diverge from per-rating submit")
	}
}

// TestSubmitBatchPerRatingValidation checks the error slice is
// index-aligned: invalid entries fail individually while the rest of the
// batch lands.
func TestSubmitBatchPerRatingValidation(t *testing.T) {
	const n, k = 40, 4
	o, err := New(n, k, ebay.New(n))
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	errs := o.SubmitBatch([]rating.Rating{
		{Rater: 0, Ratee: 1, Value: 1},
		{Rater: 0, Ratee: n + 5, Value: 1}, // out of range
		{Rater: 2, Ratee: 3, Value: 1},
	})
	if errs == nil {
		t.Fatal("want a non-nil error slice for a batch with an invalid entry")
	}
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("valid entries failed: %v / %v", errs[0], errs[2])
	}
	if errs[1] == nil {
		t.Fatal("out-of-range ratee accepted")
	}
	reps := o.EndInterval()
	if len(reps) != n {
		t.Fatalf("got %d reputations, want %d", len(reps), n)
	}
}

// TestSubmitBatchFTValidation covers the fault-mode validation set (rater
// range and self-ratings are rejected before delivery).
func TestSubmitBatchFTValidation(t *testing.T) {
	const n, k = 40, 4
	o, err := NewWithOptions(n, k, ebay.New(n), Options{Fault: alwaysOnPlan(t, fault.Config{}, k)})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	errs := o.SubmitBatch([]rating.Rating{
		{Rater: 0, Ratee: 1, Value: 1},
		{Rater: 5, Ratee: 5, Value: 1},  // self-rating
		{Rater: -1, Ratee: 2, Value: 1}, // bad rater
	})
	if errs == nil || errs[0] != nil || errs[1] == nil || errs[2] == nil {
		t.Fatalf("unexpected validation outcome: %v", errs)
	}
}

// TestSubmitBatchRejectsNonFinite checks that a NaN or infinite value is
// refused per entry on every submit path — plain, fault-tolerant, and
// fault-tolerant with every delivery deferred to the drain — while the rest
// of the batch lands, so the published reputations stay finite.
func TestSubmitBatchRejectsNonFinite(t *testing.T) {
	const n, k = 4, 2
	modes := []struct {
		name string
		cfg  *fault.Config
	}{
		{"plain", nil},
		{"fault plan", &fault.Config{}},
		{"fault plan, deferred", &fault.Config{Delay: 1}},
	}
	for _, mode := range modes {
		for _, v := range []float64{math.Inf(1), math.NaN(), math.Inf(-1)} {
			name := fmt.Sprintf("%s, value %v", mode.name, v)
			var opts Options
			if mode.cfg != nil {
				opts.Fault = alwaysOnPlan(t, *mode.cfg, k)
			}
			o, err := NewWithOptions(n, k, eigentrust.New(eigentrust.Config{NumNodes: n}), opts)
			if err != nil {
				t.Fatal(err)
			}
			errs := o.SubmitBatch([]rating.Rating{
				{Rater: 0, Ratee: 1, Value: v},
				{Rater: 2, Ratee: 3, Value: 1},
				{Rater: 1, Ratee: 2, Value: 1},
			})
			if errs == nil || errs[0] == nil || errs[1] != nil || errs[2] != nil {
				t.Errorf("%s: errors %v, want only the first entry rejected", name, errs)
			}
			for i, rep := range o.EndInterval() {
				if math.IsNaN(rep) || math.IsInf(rep, 0) {
					t.Errorf("%s: reputation of node %d is %v", name, i, rep)
				}
			}
			o.Close()
		}
	}
}

// TestSubmitBatchAllDropped verifies a total message loss surfaces as
// per-rating timeouts after the retry budget, matching the unbatched path.
func TestSubmitBatchAllDropped(t *testing.T) {
	const n, k = 40, 4
	o, err := NewWithOptions(n, k, ebay.New(n), Options{
		Fault:        alwaysOnPlan(t, fault.Config{Drop: 1}, k),
		RetryBackoff: 1, // microscopic: keep the test fast
	})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	errs := o.SubmitBatch(batchTrace(1, n, 20))
	if errs == nil {
		t.Fatal("want timeouts when every delivery is dropped")
	}
	for i, e := range errs {
		if !errors.Is(e, ErrTimeout) {
			t.Fatalf("errs[%d] = %v, want ErrTimeout", i, e)
		}
	}
}

// TestSubmitBatchDeferredLandsAtDrain checks delay-injected batch entries
// are acknowledged on receipt and folded in by the interval drain.
func TestSubmitBatchDeferredLandsAtDrain(t *testing.T) {
	const n, k = 40, 4
	o, err := NewWithOptions(n, k, ebay.New(n), Options{
		Fault: alwaysOnPlan(t, fault.Config{Delay: 1}, k),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if errs := o.SubmitBatch([]rating.Rating{{Rater: 0, Ratee: 1, Value: 1}}); errs != nil {
		t.Fatalf("SubmitBatch: %v", errs)
	}
	reps := o.EndInterval()
	if reps[1] <= reps[2] {
		t.Fatalf("deferred rating never reached the ledger: rep[1]=%v rep[2]=%v", reps[1], reps[2])
	}
}
