package core

import (
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"socialtrust/internal/interest"
	"socialtrust/internal/obs/span"
	"socialtrust/internal/rating"
	"socialtrust/internal/reputation/ebay"
	"socialtrust/internal/socialgraph"
	"socialtrust/internal/xrand"
)

// perfScenario builds an n-node ring-plus-chords graph with one interval of
// spread-out rating traffic — every node rates a few random peers, so the
// Adjust pass has hundreds of distinct pairs to compute signals for. Shared
// by the allocation test and the warm/cold Adjust benchmarks.
func perfScenario(n, workers int) (*SocialTrust, rating.Snapshot) {
	g := socialgraph.New(n)
	sets := make([]interest.Set, n)
	rng := xrand.New(5)
	for i := 0; i < n; i++ {
		g.AddRelationship(socialgraph.NodeID(i), socialgraph.NodeID((i+1)%n),
			socialgraph.Relationship{Kind: socialgraph.Friendship})
		j := rng.Intn(n)
		if j != i {
			g.AddRelationship(socialgraph.NodeID(i), socialgraph.NodeID(j),
				socialgraph.Relationship{Kind: socialgraph.Colleague})
		}
		sets[i] = interest.NewSet(interest.Category(i%5), interest.Category(i%11))
	}

	ledger := rating.NewLedger(n)
	for i := 0; i < n; i++ {
		for k := 0; k < 3; k++ {
			j := rng.Intn(n)
			if j == i {
				continue
			}
			if err := ledger.Add(rating.Rating{Rater: i, Ratee: j, Value: 1}); err != nil {
				panic(err)
			}
			g.RecordInteraction(socialgraph.NodeID(i), socialgraph.NodeID(j), 1)
		}
	}
	snap := ledger.EndInterval()
	st := New(Config{NumNodes: n, Workers: workers}, g, sets, interest.NewTracker(n), ebay.New(n))
	return st, snap
}

// TestWarmAdjustAllocations pins the scratch-buffer and cache contract: on a
// quiescent graph, a warm Adjust pass must allocate a small fraction of what
// a cold pass does — the per-pair BFS state, signal maps, and fan-out all
// disappear once the epoch-versioned cache is hot.
func TestWarmAdjustAllocations(t *testing.T) {
	st, snap := perfScenario(200, 1)
	st.Adjust(snap) // prime the cache and size the scratch buffers

	warm := testing.AllocsPerRun(10, func() {
		st.Adjust(snap)
	})
	cold := testing.AllocsPerRun(10, func() {
		st.Reset() // drops the signal cache; the next pass recomputes everything
		st.Adjust(snap)
	})
	t.Logf("allocs/op: warm=%.0f cold=%.0f", warm, cold)
	if warm*5 > cold {
		t.Fatalf("warm Adjust allocates too much: warm=%.0f cold=%.0f (want warm <= cold/5)", warm, cold)
	}
}

// TestWarmAdjustTracingOffAllocations pins the tracing layer's disabled-path
// contract: the span emission sites inside Adjust (internal/obs/span) are
// nil-gated, so with tracing off the warm pass must allocate exactly what it
// did before instrumentation — warmAllocBudget was measured on the
// uninstrumented Adjust and the instrumented path may not exceed it.
// (BenchmarkSpanSiteDisabled in internal/obs/span pins the per-site cost at
// a few ns.)
func TestWarmAdjustTracingOffAllocations(t *testing.T) {
	if span.Enabled() {
		t.Fatal("span recorder unexpectedly enabled")
	}
	// Measured at 16 allocs/op on go1.24 with and without the span sites;
	// any regression past it means a span site allocates while disabled.
	const warmAllocBudget = 16
	st, snap := perfScenario(200, 1)
	st.Adjust(snap) // prime the cache and size the scratch buffers
	warm := testing.AllocsPerRun(10, func() {
		st.Adjust(snap)
	})
	t.Logf("allocs/op: warm=%.0f (budget %d)", warm, warmAllocBudget)
	if warm > warmAllocBudget {
		t.Fatalf("warm Adjust with tracing off allocates %.0f/op, want <= %d (span sites must be free)",
			warm, warmAllocBudget)
	}
}

// TestWarmUpdateAllocations pins what Update's in-place rewrite saves: a
// warm Update, handed a snapshot with flagged pairs, allocates less than one
// copy of the interval's ratings.
func TestWarmUpdateAllocations(t *testing.T) {
	f := newFixture()
	f.normalTraffic()
	f.collusionTraffic(200)
	drained := f.ledger.EndInterval()
	st := New(Config{NumNodes: fixtureN}, f.graph, f.sets, f.tracker, &heldSnapshot{fixedReps: make(fixedReps, fixtureN)})
	if _, report := st.Adjust(drained); len(report.Adjusted) == 0 {
		t.Fatal("fixture produced no adjusted pairs")
	}
	const runs = 20
	snaps := make([]rating.Snapshot, runs)
	for i := range snaps {
		snaps[i] = rating.Snapshot{Ratings: slices.Clone(drained.Ratings), MaxSeq: drained.MaxSeq}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, snap := range snaps {
		st.Update(snap)
	}
	runtime.ReadMemStats(&after)
	perUpdate := (after.TotalAlloc - before.TotalAlloc) / runs
	oneCopy := uint64(len(drained.Ratings)) * uint64(unsafe.Sizeof(rating.Rating{}))
	t.Logf("warm Update: %d B per call; one copy of %d ratings is %d B", perUpdate, len(drained.Ratings), oneCopy)
	if perUpdate >= oneCopy {
		t.Errorf("warm Update allocates %d B per call, want under one copy of the ratings (%d B)", perUpdate, oneCopy)
	}
}
