package eigentrust

import (
	"testing"

	"socialtrust/internal/rating"
	"socialtrust/internal/xrand"
)

// TestQuietUpdateSkipsIteration pins the warm-start skip: an update that
// leaves every local trust sum unchanged runs zero iterations and returns
// the previous vector bit for bit.
func TestQuietUpdateSkipsIteration(t *testing.T) {
	e := New(Config{NumNodes: 20, Pretrusted: []int{0}, Workers: 1})
	rng := xrand.New(5)
	e.Update(randomSnapshot(rng, 20, 120))
	if !e.Stats().Converged {
		t.Fatal("setup: first update did not converge")
	}
	before := e.Reputations()
	updates := e.Stats().Updates

	// An empty interval and a zero-valued rating both leave the sums —
	// and therefore the matrix — untouched.
	for _, snap := range []rating.Snapshot{
		{},
		{Ratings: []rating.Rating{{Rater: 3, Ratee: 4, Value: 0}}},
	} {
		e.Update(snap)
		st := e.Stats()
		if !st.Skipped || st.Iterations != 0 {
			t.Fatalf("quiet update ran %d iterations (Skipped=%v)", st.Iterations, st.Skipped)
		}
		if !st.Converged {
			t.Fatal("skip must preserve Converged")
		}
		updates++
		if st.Updates != updates {
			t.Fatalf("Updates = %d, want %d", st.Updates, updates)
		}
		assertVectorsEqual(t, e.Reputations(), before, "quiet update")
	}

	// The next real change must clear Skipped and iterate again. A large
	// positive value guarantees the pair's clamped positive part changes
	// whatever sign its prior sum had.
	e.Update(rating.Snapshot{Ratings: []rating.Rating{{Rater: 1, Ratee: 2, Value: 100}}})
	if st := e.Stats(); st.Skipped || st.Iterations == 0 {
		t.Fatalf("real update skipped (Skipped=%v, Iterations=%d)", st.Skipped, st.Iterations)
	}
}

// TestNoSkipWhenUnconverged pins the guard: a vector stopped by the MaxIter
// cap is not a fixpoint, so even a quiet interval keeps iterating.
func TestNoSkipWhenUnconverged(t *testing.T) {
	e := New(Config{NumNodes: 20, Pretrusted: []int{0}, Workers: 1, MaxIter: 1})
	rng := xrand.New(6)
	e.Update(randomSnapshot(rng, 20, 120))
	if e.Stats().Converged {
		t.Fatal("setup: MaxIter=1 unexpectedly converged")
	}
	e.Update(rating.Snapshot{})
	if st := e.Stats(); st.Skipped || st.Iterations == 0 {
		t.Fatalf("unconverged quiet update skipped (Skipped=%v, Iterations=%d)", st.Skipped, st.Iterations)
	}
}

// TestIncrementalMatchesFullRecomputeCSR drives a mixed update sequence —
// value-only intervals (dirty-row refresh), shape changes (rebuild), quiet
// intervals (skip), and node resets — through an incremental engine and a
// FullRecompute reference in lockstep, asserting the trust vectors stay
// bitwise identical at every step.
func TestIncrementalMatchesFullRecomputeCSR(t *testing.T) {
	const n = 50
	inc := New(Config{NumNodes: n, Pretrusted: []int{0, 1}, Workers: 1})
	ref := New(Config{NumNodes: n, Pretrusted: []int{0, 1}, Workers: 1, FullRecompute: true})
	rng := xrand.New(13)

	for step := 0; step < 15; step++ {
		var snap rating.Snapshot
		switch step % 5 {
		case 1:
			// Value-only: positive deltas on existing positive pairs.
			snap.Ratings = positivePairs(inc)
		case 3:
			// Quiet interval.
		default:
			snap = randomSnapshot(rng, n, 100)
		}
		inc.Update(snap)
		ref.Update(snap)
		if inc.Stats().Skipped != ref.Stats().Skipped {
			t.Fatalf("step %d: skip disagreement (inc=%v ref=%v)", step, inc.Stats().Skipped, ref.Stats().Skipped)
		}
		assertVectorsEqual(t, inc.t, ref.t, "incremental vs FullRecompute")
		if step == 9 {
			inc.ResetNode(7)
			ref.ResetNode(7)
			assertVectorsEqual(t, inc.t, ref.t, "after ResetNode")
		}
	}
}

// TestDirtyRowRefreshTouchesOnlyDirtyRows pins the mechanism itself: a
// value-only update refreshes just the changed rows (the dirty set drains)
// without a structural rebuild.
func TestDirtyRowRefreshTouchesOnlyDirtyRows(t *testing.T) {
	e := New(Config{NumNodes: 10, Workers: 1})
	e.Update(rating.Snapshot{Ratings: []rating.Rating{
		{Rater: 0, Ratee: 1, Value: 2},
		{Rater: 1, Ratee: 2, Value: 3},
		{Rater: 2, Ratee: 0, Value: 1},
	}})
	warm := e.Reputations()
	e.Update(rating.Snapshot{Ratings: []rating.Rating{
		{Rater: 0, Ratee: 1, Value: 5}, // only row 0 changes value
	}})
	if len(e.csr.dirtyRows) != 0 {
		t.Fatalf("dirty set not drained: %v", e.csr.dirtyRows)
	}
	if e.csr.rowDirty[0] {
		t.Fatal("rowDirty[0] not cleared after refresh")
	}
	assertVectorsEqual(t, e.t, referenceIterate(e, warm), "dirty-row refresh")
}
