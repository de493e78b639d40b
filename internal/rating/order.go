package rating

import (
	"cmp"
	"math/bits"
	"slices"
)

// CompareSnapshot is the snapshot order: by ratee, rater, cycle, category
// and value. Values compare with <, so −0 and +0 tie; NaN values are outside
// the contract, since they make no strict weak order.
func CompareSnapshot(x, y *Rating) int {
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
// CompareSnapshot. Ledger.EndInterval produces its snapshots with it, and
// the manager overlay's cross-shard gather equals it on the shards'
// snapshots in shard order, so every drained interval reaches the
// reputation engines in one reproducible order. The runs are left as they
// are; the result is a fresh slice, nil when the runs hold no ratings.
//
// The runs are radix-sorted. The scratch is two uint64 keys per rating,
// never one slot per node: the overlay drains every shard each interval,
// and a node-indexed array per call would cost each shard the whole
// population however few ratings it holds. A key packs the rating's
// position (run, offset in run) under the longest prefix of (ratee, rater,
// cycle, category) whose values are non-negative and fit beside it in 64
// bits, each in as many bits as its largest value needs. The keys are
// radix-sorted on the packed prefix, the ratings are gathered in key order,
// and only ratings that share the prefix are compared on the remaining
// keys. Below 2^20 nodes, ratee and rater pack whenever the position takes
// at most 24 bits; with no key packed, one stable comparison sort orders
// everything.
func SnapshotOrder(runs ...[]Rating) []Rating {
	n, longest := 0, 0
	for _, run := range runs {
		n, longest = n+len(run), max(longest, len(run))
	}
	if n == 0 {
		return nil
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
			slices.SortStableFunc(out[lo:hi], func(x, y Rating) int { return CompareSnapshot(&x, &y) })
		}
		lo = hi
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
