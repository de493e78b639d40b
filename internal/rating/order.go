package rating

import (
	"cmp"
	"math/bits"
	"slices"
)

// compareSnapshot is the snapshot order: by ratee, rater, cycle, category
// and value. Values compare with <, so −0 and +0 tie; NaN values are outside
// the contract, since they make no strict weak order.
func compareSnapshot(x, y *Rating) int {
	switch {
	case x.Ratee != y.Ratee:
		return cmp.Compare(x.Ratee, y.Ratee)
	case x.Rater != y.Rater:
		return cmp.Compare(x.Rater, y.Rater)
	case x.Cycle != y.Cycle:
		return cmp.Compare(x.Cycle, y.Cycle)
	case x.Category != y.Category:
		return cmp.Compare(x.Category, y.Category)
	case x.Value < y.Value:
		return -1
	case y.Value < x.Value:
		return 1
	}
	return 0
}

// SnapshotOrder returns the ratings of runs, taken as one sequence in run
// order, sorted into snapshot order: by ratee, rater, cycle, category and
// value, with ties kept in input order — a stable sort under
// compareSnapshot. Ledger.EndInterval and the manager overlay's cross-shard
// merge both produce their snapshots with it, so every drained interval
// reaches the reputation engines in one reproducible order. The runs are
// left as they are.
//
// When every run is already in snapshot order — the shards' drained
// snapshots the overlay merges — the runs are merged (mergeRuns); checking
// costs one comparison per rating and stops at the first inversion.
// Otherwise, as for a ledger's runs in ingest order, they are radix-sorted.
// That path's scratch is two uint64 keys per rating, never one slot per
// node: the overlay drains every shard each interval, and a node-indexed
// array per call would cost each shard the whole population however few
// ratings it holds. A key packs the rating's position (run, offset in run) under the
// longest prefix of (ratee, rater, cycle, category) whose values are
// non-negative and fit beside it in 64 bits, each in as many bits as its
// largest value needs. The keys are radix-sorted on the packed prefix, the
// ratings are gathered in key order, and only ratings that share the prefix
// are compared on the remaining keys. Below 2^20 nodes, ratee and rater pack
// whenever the position takes at most 24 bits; with no key packed, one
// stable comparison sort orders everything.
func SnapshotOrder(runs ...[]Rating) []Rating {
	n, longest := 0, 0
	for _, run := range runs {
		n, longest = n+len(run), max(longest, len(run))
	}
	if n == 0 {
		return nil
	}
	if ordered(runs) {
		return mergeRuns(runs, n)
	}
	// Per prefix key, the OR of its values has the bit length of the
	// largest one, and is negative if any value is.
	var ors [4]int
	for _, run := range runs {
		for i := range run {
			r := &run[i]
			ors[0] |= r.Ratee
			ors[1] |= r.Rater
			ors[2] |= r.Cycle
			ors[3] |= r.Category
		}
	}
	offBits := bits.Len(uint(longest - 1))
	posBits := bits.Len(uint(len(runs)-1)) + offBits
	var widths [4]int
	packed, top := 0, posBits
	for packed < len(ors) && ors[packed] >= 0 && top+bits.Len(uint(ors[packed])) <= 64 {
		widths[packed] = bits.Len(uint(ors[packed]))
		top += widths[packed]
		packed++
	}
	// A key left out of the prefix shifts by 64, which contributes nothing.
	shifts := [4]uint{64, 64, 64, 64}
	for f, at := 0, top; f < packed; f++ {
		at -= widths[f]
		shifts[f] = uint(at)
	}

	keys := make([]uint64, 2*n)
	keys, buf := keys[:n], keys[n:]
	pos := 0
	for ri, run := range runs {
		for i := range run {
			r := &run[i]
			keys[pos] = uint64(r.Ratee)<<shifts[0] | uint64(r.Rater)<<shifts[1] |
				uint64(r.Cycle)<<shifts[2] | uint64(r.Category)<<shifts[3] |
				uint64(ri)<<offBits | uint64(i)
			pos++
		}
	}
	keys = radixSort(keys, buf, posBits, top)
	out := make([]Rating, n)
	runMask, offMask := uint64(1)<<(posBits-offBits)-1, uint64(1)<<offBits-1
	for i, k := range keys {
		out[i] = runs[k>>offBits&runMask][k&offMask]
	}
	for lo := 0; lo < n; {
		prefix, hi := keys[lo]>>posBits, lo+1
		for hi < n && keys[hi]>>posBits == prefix {
			hi++
		}
		if hi-lo > 1 {
			slices.SortStableFunc(out[lo:hi], func(x, y Rating) int { return compareSnapshot(&x, &y) })
		}
		lo = hi
	}
	return out
}

// ordered reports whether every run is in snapshot order.
func ordered(runs [][]Rating) bool {
	for _, run := range runs {
		for i := 1; i < len(run); i++ {
			if compareSnapshot(&run[i-1], &run[i]) > 0 {
				return false
			}
		}
	}
	return true
}

// mergeRuns merges runs, each in snapshot order and n ratings in all, into
// one slice in snapshot order; ratings that compare equal keep run order.
// Each step finds the run with the least head and the runner-up among the
// other heads, then copies the leader's ratings in one append for as long as
// they stay ahead of the runner-up's head — a whole ratee's block at a time
// when the runs are ratee-sharded.
func mergeRuns(runs [][]Rating, n int) []Rating {
	out := make([]Rating, 0, n)
	rest := append([][]Rating(nil), runs...)
	for len(out) < n {
		lead, next := -1, -1
		for i, r := range rest {
			switch {
			case len(r) == 0:
			case lead < 0 || compareSnapshot(&r[0], &rest[lead][0]) < 0:
				lead, next = i, lead
			case next < 0 || compareSnapshot(&r[0], &rest[next][0]) < 0:
				next = i
			}
		}
		r, m := rest[lead], len(rest[lead])
		if next >= 0 {
			// A tie with the runner-up's head stays in the leader only when
			// the leader is the earlier run.
			bound, tie := &rest[next][0], 0
			if lead < next {
				tie = 1
			}
			m = 1
			for m < len(r) && compareSnapshot(&r[m], bound) < tie {
				m++
			}
		}
		out = append(out, r[:m]...)
		rest[lead] = r[m:]
	}
	return out
}

// radixSort sorts keys by their bits [lo, hi), ties in input order, with
// least-significant-digit passes of 8 bits that alternate between keys and
// buf; it returns whichever of the two holds the result. Keys must be zero
// above bit hi.
func radixSort(keys, buf []uint64, lo, hi int) []uint64 {
	const digitBits, digitMask = 8, 1<<8 - 1
	var count [1 << digitBits]int
	for shift := lo; shift < hi; shift += digitBits {
		clear(count[:])
		for _, k := range keys {
			count[k>>shift&digitMask]++
		}
		sum := 0
		for d, c := range count {
			count[d], sum = sum, sum+c
		}
		for _, k := range keys {
			d := k >> shift & digitMask
			buf[count[d]] = k
			count[d]++
		}
		keys, buf = buf, keys
	}
	return keys
}
