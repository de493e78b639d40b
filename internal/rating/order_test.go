package rating

import (
	"math"
	"runtime"
	"slices"
	"sort"
	"testing"
)

// referenceOrder is the snapshot order as the drain defined it before
// SnapshotOrder existed — a reflect-based stable sort under a five-key less
// function — kept as an independent reference for SnapshotOrder.
func referenceOrder(rs []Rating) {
	sort.SliceStable(rs, func(a, b int) bool {
		x, y := rs[a], rs[b]
		switch {
		case x.Ratee != y.Ratee:
			return x.Ratee < y.Ratee
		case x.Rater != y.Rater:
			return x.Rater < y.Rater
		case x.Cycle != y.Cycle:
			return x.Cycle < y.Cycle
		case x.Category != y.Category:
			return x.Category < y.Category
		default:
			return x.Value < y.Value
		}
	})
}

// orderValues are the rating values the order fuzz draws from: the paper's
// ±1, zero (counted as neither sign), both zeros (they tie under <), and the
// fractions SocialTrust's shrinking produces.
var orderValues = []float64{-1, 0, 1, 0.5, -0.5, 0.25, 1.0 / 3, math.Copysign(0, -1), 0.1, -0.75, 2, -2}

// orderNodes is the node range the order fuzz draws IDs from. It is small so
// that most ratings share a ratee, many a (ratee, rater) pair, and some the
// whole five-key tuple, differing only in Seq.
const orderNodes = 6

// decodeOrderInput turns fuzz bytes into ratings, five bytes each after two
// header bytes: rater, ratee, cycle, category and value. Seq numbers the
// ratings in input order, so a tie broken out of input order shows. The
// first byte picks how much of SnapshotOrder's key prefix packs. Its low two
// bits set the node IDs: small (mode 0), scaled by 2^20 or 2^40, or shifted
// negative (mode 3, nothing packs). Bit 2 scales cycles by 2^30, and bit 3
// shifts categories negative. Its high four bits split the ratings into runs
// of that many, after an empty run, or leave them one run when zero. When
// the second byte's low bit is set, each run is put in snapshot order with
// referenceOrder, the shape of the shards' drained snapshots; rs then holds
// the ratings in that per-run order.
func decodeOrderInput(data []byte) (rs []Rating, runs [][]Rating, idMode byte) {
	if len(data) < 2 {
		return nil, nil, 0
	}
	head, sortRuns, data := data[0], data[1]&1 != 0, data[2:]
	idMode, size := head&3, int(head>>4)
	id := func(b byte) int {
		v := int(b % orderNodes)
		switch idMode {
		case 1:
			v <<= 20
		case 2:
			v <<= 40
		case 3:
			v -= orderNodes / 2
		}
		return v
	}
	for i := 0; i+5 <= len(data); i += 5 {
		b := data[i : i+5]
		r := Rating{
			Rater:    id(b[0]),
			Ratee:    id(b[1]),
			Cycle:    int(b[2] % 3),
			Category: int(b[3] % 3),
			Value:    orderValues[int(b[4])%len(orderValues)],
			Seq:      uint64(len(rs) + 1),
		}
		if head&4 != 0 {
			r.Cycle <<= 30
		}
		if head&8 != 0 {
			r.Category--
		}
		rs = append(rs, r)
	}
	runs = [][]Rating{rs}
	if size != 0 {
		runs = [][]Rating{nil}
		for lo := 0; lo < len(rs); lo += size {
			runs = append(runs, rs[lo:min(lo+size, len(rs))])
		}
	}
	if sortRuns {
		for _, run := range runs {
			referenceOrder(run)
		}
	}
	return rs, runs, idMode
}

// orderSeed builds a fuzz seed of n ratings from a fixed linear congruential
// stream; pairs restricts the draws to that many (ratee, rater) pairs so the
// pairs' runs grow long.
func orderSeed(n, pairs int) []byte {
	data := []byte{0, 0}
	x := uint32(1)
	next := func() byte {
		x = x*1664525 + 1013904223
		return byte(x >> 24)
	}
	for i := 0; i < n; i++ {
		p := int(next()) % pairs
		data = append(data, byte(p/orderNodes), byte(p%orderNodes), next(), next(), next())
	}
	return data
}

// checkPairRuns checks PairRuns(rs) against a map-built reference: one run
// per distinct pair, each with that pair's counters, the runs tiling [0, n)
// in order and every rating inside its pair's run; and that RunsIncrease
// recognises the runs of snapshot-ordered rs.
func checkPairRuns(t *testing.T, rs []Rating) {
	t.Helper()
	want := map[PairKey]PairCounts{}
	for _, r := range rs {
		c := want[PairKey{r.Rater, r.Ratee}]
		if r.Value > 0 {
			c.Positive++
		} else if r.Value < 0 {
			c.Negative++
		}
		want[PairKey{r.Rater, r.Ratee}] = c
	}
	runs := PairRuns(rs, nil)
	if len(runs) != len(want) {
		t.Fatalf("PairRuns gave %d runs for %d distinct pairs: %v", len(runs), len(want), runs)
	}
	seen := map[PairKey]bool{}
	at := 0
	for _, run := range runs {
		if seen[run.PairKey] || run.PairCounts != want[run.PairKey] || run.Lo != at || run.Hi <= run.Lo {
			t.Fatalf("PairRuns run %+v (next expected at %d, counters %+v, seen %v): %v",
				run, at, want[run.PairKey], seen[run.PairKey], runs)
		}
		seen[run.PairKey] = true
		for _, r := range rs[run.Lo:run.Hi] {
			if (PairKey{r.Rater, r.Ratee}) != run.PairKey {
				t.Fatalf("PairRuns run %+v holds rating %+v", run, r)
			}
		}
		at = run.Hi
	}
	if at != len(rs) {
		t.Fatalf("PairRuns covers [0, %d) of %d ratings", at, len(rs))
	}
	if !RunsIncrease(runs) {
		t.Fatalf("RunsIncrease is false on the runs of snapshot-ordered ratings: %v", runs)
	}
}

// FuzzSnapshotOrder pins SnapshotOrder and Ledger.EndInterval to the
// reference order on arbitrary rating multisets: the same ratings at every
// position, ties in input order, whether or not each run is already in
// snapshot order. PairRuns of each result is pinned to a map-built
// reference.
func FuzzSnapshotOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 2, 0, 0, 2})
	// Four ratings with one five-key tuple, then the same with +0 and −0.
	f.Add([]byte{0, 0, 1, 2, 1, 1, 2, 1, 2, 1, 1, 2, 1, 2, 1, 1, 2, 1, 2, 1, 1, 2})
	f.Add([]byte{0, 0, 3, 4, 0, 0, 1, 3, 4, 0, 0, 7, 3, 4, 0, 0, 1})
	f.Add([]byte{0, 0, 5, 0, 2, 2, 3, 4, 0, 1, 2, 0, 0, 5, 0, 0, 10, 1, 0, 2, 1, 4})
	f.Add(orderSeed(64, orderNodes*orderNodes))
	f.Add(orderSeed(120, 3)) // runs past the stable sort's insertion blocks
	// Every packed prefix length from four keys down to none, on one run
	// and on several.
	for _, head := range []byte{0x10, 0x78, 0x05, 0x21, 0x02, 0x13, 0x70, 0x0c} {
		seed := orderSeed(64, 9)
		seed[0] = head
		f.Add(seed)
	}
	// Runs already in snapshot order, of several sizes: one pair set small
	// enough that five-key ties cross runs, and one ordered run alone.
	for _, head := range []byte{0x10, 0x40, 0xf0, 0x73, 0x00} {
		seed := orderSeed(120, 3)
		seed[0], seed[1] = head, 1
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		rs, runs, idMode := decodeOrderInput(data)
		in := slices.Clone(rs)
		want := slices.Clone(rs)
		referenceOrder(want)
		got := SnapshotOrder(runs...)
		if !slices.Equal(got, want) {
			t.Fatalf("SnapshotOrder differs from the reference order:\ngot  %v\nwant %v", got, want)
		}
		if !slices.Equal(rs, in) {
			t.Fatal("SnapshotOrder modified its input runs")
		}
		checkPairRuns(t, got)
		if idMode != 0 {
			return // the ledger takes only IDs in [0, orderNodes)
		}

		l := NewLedger(orderNodes)
		var kept []Rating
		var maxSeq uint64
		for _, r := range rs {
			if l.Add(r) != nil {
				continue // a self-rating
			}
			kept = append(kept, r)
			maxSeq = max(maxSeq, r.Seq)
		}
		referenceOrder(kept)
		snap := l.EndInterval()
		if !slices.Equal(snap.Ratings, kept) || snap.MaxSeq != maxSeq {
			t.Fatalf("EndInterval differs from the reference order:\ngot  %v, MaxSeq %d\nwant %v, %d",
				snap.Ratings, snap.MaxSeq, kept, maxSeq)
		}
		checkPairRuns(t, snap.Ratings)
	})
}

// TestEndIntervalScratchBoundedByRatings pins the drain's memory contract:
// draining a ledger allocates in proportion to the ratings it holds, not to
// the population. One slot per node of a 1M-node ledger is 1 MiB even at one
// byte; 100 ratings must drain in far less.
func TestEndIntervalScratchBoundedByRatings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations skew byte counts")
	}
	const nodes, ratings, runs = 1_000_000, 100, 20
	var total uint64
	for k := 0; k < runs; k++ {
		l := NewLedger(nodes)
		for i := 0; i < ratings; i++ {
			r := Rating{Rater: (i*7919 + k) % nodes, Ratee: (i*104729 + 500_000) % nodes, Value: 1, Cycle: i}
			if err := l.Add(r); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		snap := l.EndInterval()
		runtime.ReadMemStats(&after)
		if len(snap.Ratings) != ratings {
			t.Fatalf("drained %d ratings, want %d", len(snap.Ratings), ratings)
		}
		total += after.TotalAlloc - before.TotalAlloc
	}
	const limit = 64 << 10
	bytes := total / runs
	t.Logf("EndInterval, %d ratings on %d nodes: %d B per call", ratings, nodes, bytes)
	if bytes >= limit {
		t.Errorf("EndInterval allocates %d B per call, want under %d", bytes, limit)
	}
}
