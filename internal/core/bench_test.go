package core

import (
	"math/rand/v2"
	"testing"

	"socialtrust/internal/interest"
	"socialtrust/internal/rating"
	"socialtrust/internal/rating/ratingtest"
	"socialtrust/internal/reputation/ebay"
	"socialtrust/internal/socialgraph"
)

// BenchmarkAdjustWarmCache measures an Adjust pass on a quiescent graph with
// the signal cache hot: every pair's closeness/similarity comes out of the
// epoch-versioned cache and the pass reduces to thresholding and reweighting.
func BenchmarkAdjustWarmCache(b *testing.B) {
	st, snap := perfScenario(200, 1)
	st.Adjust(snap) // prime
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Adjust(snap)
	}
}

// BenchmarkAdjustColdCache is the same pass with the cache dropped before
// every iteration — each pair pays the full BFS/similarity computation. The
// warm/cold ratio is what the cache buys.
func BenchmarkAdjustColdCache(b *testing.B) {
	st, snap := perfScenario(200, 1)
	st.Adjust(snap)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Reset()
		st.Adjust(snap)
	}
}

// BenchmarkAdjustBulk times a warm Adjust at bulk-cluster's interval shape:
// 412k ratings over 10k nodes drained through a ledger, on a graph where
// every node has six random friends and four of 16 interests, with the
// signal cache primed. At 200 nodes the per-pair bookkeeping — pair order,
// counters, the rewrite — costs next to nothing; here it is most of the pass.
func BenchmarkAdjustBulk(b *testing.B) {
	const nodes = 10000
	rng := rand.New(rand.NewPCG(3, 4))
	g := socialgraph.New(nodes)
	sets := make([]interest.Set, nodes)
	for i := 0; i < nodes; i++ {
		for k := 0; k < 6; k++ {
			if j := rng.IntN(nodes); j != i {
				g.AddRelationship(socialgraph.NodeID(i), socialgraph.NodeID(j),
					socialgraph.Relationship{Kind: socialgraph.Friendship})
			}
		}
		var cats []interest.Category
		for k := 0; k < 4; k++ {
			cats = append(cats, interest.Category(rng.IntN(16)))
		}
		sets[i] = interest.NewSet(cats...)
	}
	ledger := rating.NewLedger(nodes)
	if errs := ledger.AddBatch(ratingtest.BulkInterval(nodes)); errs != nil {
		b.Fatal(errs)
	}
	snap := ledger.EndInterval()
	st := New(Config{NumNodes: nodes, Closeness: socialgraph.ClosenessParams{MaxPathHops: 3}},
		g, sets, interest.NewTracker(nodes), ebay.New(nodes))
	_, report := st.Adjust(snap) // prime the signal cache and size the scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, again := st.Adjust(snap)
		if len(out.Ratings) != len(snap.Ratings) || len(again.Adjusted) != len(report.Adjusted) {
			b.Fatalf("warm Adjust returned %d of %d ratings and %d flagged pairs, want %d",
				len(out.Ratings), len(snap.Ratings), len(again.Adjusted), len(report.Adjusted))
		}
	}
}
