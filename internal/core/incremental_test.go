package core

import (
	"reflect"
	"testing"

	"socialtrust/internal/interest"
	"socialtrust/internal/rating"
	"socialtrust/internal/reputation/ebay"
	"socialtrust/internal/socialgraph"
	"socialtrust/internal/xrand"
)

// incrementalPair builds two filters over independent but identically
// constructed worlds — one incremental, one FullRecompute — plus a mutator
// that applies the same graph operation to both.
func incrementalPair(n, workers int) (inc, ref *SocialTrust, both func(fn func(g *socialgraph.Graph))) {
	build := func(full bool) *SocialTrust {
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
		return New(Config{NumNodes: n, Workers: workers, FullRecompute: full},
			g, sets, interest.NewTracker(n), ebay.New(n))
	}
	inc, ref = build(false), build(true)
	both = func(fn func(g *socialgraph.Graph)) {
		fn(inc.graph)
		fn(ref.graph)
	}
	return inc, ref, both
}

// intervalSnapshot builds one reproducible interval of spread-out ratings.
func intervalSnapshot(rng *xrand.Stream, n, ratings int) rating.Snapshot {
	led := rating.NewLedger(n)
	for k := 0; k < ratings; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		v := 1.0
		if rng.Intn(5) == 0 {
			v = -1
		}
		if err := led.Add(rating.Rating{Rater: i, Ratee: j, Value: v, Cycle: k}); err != nil {
			panic(err)
		}
	}
	return led.EndInterval()
}

// TestIncrementalMatchesFullRecompute drives an interval sequence through
// every graph-mutation class — interaction recording, edge insertion, node
// edge removal, a global interaction reset — and pins that the incremental
// filter's adjusted snapshots and reports are deep-equal (float-for-float)
// to the FullRecompute reference at every step, for serial and parallel
// Adjust.
func TestIncrementalMatchesFullRecompute(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(map[int]string{1: "serial", 8: "parallel"}[workers], func(t *testing.T) {
			const n = 120
			inc, ref, both := incrementalPair(n, workers)
			rng := xrand.New(17)
			mutate := []func(g *socialgraph.Graph){
				nil, // quiescent interval: pure cache reuse
				func(g *socialgraph.Graph) {
					for i := 0; i < 10; i++ {
						g.RecordInteraction(socialgraph.NodeID(i), socialgraph.NodeID(i+1), 1)
					}
				},
				func(g *socialgraph.Graph) {
					g.AddRelationship(3, 77, socialgraph.Relationship{Kind: socialgraph.Friendship})
				},
				nil,
				func(g *socialgraph.Graph) { g.RemoveNodeEdges(50) },
				func(g *socialgraph.Graph) { g.ResetInteractions() },
				nil,
			}
			for step, fn := range mutate {
				if fn != nil {
					both(fn)
				}
				// Adjust never mutates its input, so both filters can share
				// one snapshot value.
				snap := intervalSnapshot(rng, n, 400)
				gotOut, gotRep := inc.Adjust(snap)
				wantOut, wantRep := ref.Adjust(snap)
				if !reflect.DeepEqual(gotOut, wantOut) {
					t.Fatalf("step %d: adjusted snapshots diverge", step)
				}
				if !reflect.DeepEqual(gotRep, wantRep) {
					t.Fatalf("step %d: reports diverge:\nincremental: %+v\nreference:   %+v", step, gotRep, wantRep)
				}
			}
		})
	}
}

// TestStaleCacheNeverConsultedAfterInvalidation is the poison test for the
// per-rater versioning: a deliberately corrupted cache entry for a rater
// inside the mutation's dependency radius must be recomputed (the poison
// discarded), while a corrupted entry for a far-away rater proves the clean
// path really is served from the cache.
func TestStaleCacheNeverConsultedAfterInvalidation(t *testing.T) {
	const n = 40
	g := socialgraph.New(n)
	sets := make([]interest.Set, n)
	// A path graph gives controlled distances: node i neighbors i±1.
	for i := 0; i < n-1; i++ {
		g.AddRelationship(socialgraph.NodeID(i), socialgraph.NodeID(i+1),
			socialgraph.Relationship{Kind: socialgraph.Friendship})
	}
	for i := range sets {
		sets[i] = interest.NewSet(interest.Category(i % 5))
	}
	// MaxPathHops 2 keeps the dependency radius tight: a mutation at node 0
	// affects raters within 2 hops only.
	st := New(Config{NumNodes: n, Workers: 1,
		Closeness: socialgraph.ClosenessParams{MaxPathHops: 2}},
		g, sets, interest.NewTracker(n), ebay.New(n))

	led := rating.NewLedger(n)
	near, far := rating.PairKey{Rater: 1, Ratee: 2}, rating.PairKey{Rater: 30, Ratee: 31}
	for _, k := range []rating.PairKey{near, far} {
		if err := led.Add(rating.Rating{Rater: k.Rater, Ratee: k.Ratee, Value: 1}); err != nil {
			t.Fatal(err)
		}
	}
	snap := led.EndInterval()
	out1, _ := st.Adjust(snap)
	_ = out1

	// Poison both cached entries with a sentinel closeness no real
	// computation produces.
	const sentinel = 1e30
	st.sigCache.put(near, st.closeVer[near.Rater], pairSignals{closeness: sentinel, similar: 1})
	st.sigCache.put(far, st.closeVer[far.Rater], pairSignals{closeness: sentinel, similar: 1})

	// Mutate inside rater 1's radius (node 0 is 1 hop away) and far from
	// rater 30 (29 hops).
	g.RecordInteraction(0, 1, 1)

	if cap(st.sigScratch) < 2 {
		st.sigScratch = make([]pairSignals, 2)
	}
	pairs := []rating.PairRun{{PairKey: near}, {PairKey: far}}
	sigs := make([]pairSignals, 2)
	st.adjustMu.Lock()
	st.syncGraph()
	st.computeSignals(pairs, sigs)
	st.adjustMu.Unlock()

	if sigs[0].closeness == sentinel {
		t.Fatal("poisoned entry for an affected rater was served after the graph mutation")
	}
	if sigs[1].closeness != sentinel {
		t.Fatal("clean far-away pair was recomputed — cache reuse broken (or invalidation over-broad)")
	}

	// A global mutation invalidates everyone, including the far rater.
	st.sigCache.put(far, st.closeVer[far.Rater], pairSignals{closeness: sentinel, similar: 1})
	g.ResetInteractions()
	st.adjustMu.Lock()
	st.syncGraph()
	st.computeSignals(pairs, sigs)
	st.adjustMu.Unlock()
	if sigs[1].closeness == sentinel {
		t.Fatal("poisoned entry survived a global graph mutation")
	}
}

// TestSigCacheVersionKeying pins the cache's key semantics: an entry is
// served only at the exact rater closeness version it was stored under.
func TestSigCacheVersionKeying(t *testing.T) {
	c := make(sigCache, 10)
	k := rating.PairKey{Rater: 4, Ratee: 9}
	c.put(k, 1, pairSignals{closeness: 0.5, similar: 0.25})
	if sig, ok := c.get(k, 1); !ok || sig.closeness != 0.5 {
		t.Fatalf("get at matching version = (%+v, %v), want hit", sig, ok)
	}
	if _, ok := c.get(k, 2); ok {
		t.Fatal("stale entry served after a version bump")
	}
	c.put(k, 2, pairSignals{closeness: 0.75})
	if sig, ok := c.get(k, 2); !ok || sig.closeness != 0.75 {
		t.Fatalf("get after re-store = (%+v, %v), want fresh hit", sig, ok)
	}
	c.reset()
	if _, ok := c.get(k, 2); ok {
		t.Fatal("entry survived reset")
	}
}

// TestQuietIntervalAdjustAllocations pins the incremental engine's idle
// cost: an empty interval on a quiescent graph — empty dirty set, no pairs —
// must stay within a hand-counted allocation budget, so a mostly-idle
// deployment pays near zero per interval.
func TestQuietIntervalAdjustAllocations(t *testing.T) {
	const quietAllocBudget = 9 // measured 6 on go1.24; headroom for map-iter noise
	st, snap := perfScenario(200, 1)
	st.Adjust(snap) // prime caches and scratch
	quiet := rating.Snapshot{}
	st.Adjust(quiet)
	got := testing.AllocsPerRun(20, func() {
		st.Adjust(quiet)
	})
	t.Logf("quiet allocs/op = %.0f (budget %d)", got, quietAllocBudget)
	if got > quietAllocBudget {
		t.Fatalf("quiet-interval Adjust allocates %.0f/op, want <= %d", got, quietAllocBudget)
	}
}
