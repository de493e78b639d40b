// Package rating implements the rating substrate of a P2P reputation system:
// an append-only, concurrency-safe ledger of service ratings drained once
// per interval in snapshot order, and the per-pair positive/negative
// frequency counters t+(i,j) and t−(i,j) (the quantities a resource manager
// inspects in Section 4.3 of the paper), read off each pair's run of
// adjacent ratings in that order.
package rating

import (
	"fmt"
	"math"
	"sync"
)

// Rating is one service rating issued by Rater about Ratee. The paper's P2P
// evaluation uses Value ∈ {+1,−1}; the Overstock trace uses [−2,+2]. Cycle
// is the query cycle the rating was issued in and Category the interest
// category of the underlying transaction. Seq is an optional ingest sequence
// number assigned by the producer: zero means unsequenced; nonzero values
// key write-ahead-log replay deduplication after a crash restart. Seq never
// participates in rating semantics or ordering.
type Rating struct {
	Rater    int
	Ratee    int
	Value    float64
	Cycle    int
	Category int
	Seq      uint64
}

// PairKey identifies a directed (rater, ratee) pair.
type PairKey struct{ Rater, Ratee int }

// PairCounts is the per-interval frequency record for one directed pair.
type PairCounts struct {
	Positive int // t+(i,j): ratings with Value > 0 this interval
	Negative int // t−(i,j): ratings with Value < 0 this interval
}

// Total returns the total number of ratings in the interval for the pair.
func (p PairCounts) Total() int { return p.Positive + p.Negative }

// PairRun is one directed pair's block of adjacent ratings in a
// snapshot-ordered slice: the ratings [Lo, Hi) and their counters.
type PairRun struct {
	PairKey
	PairCounts
	Lo, Hi int
}

// PairRuns appends to dst one run per maximal block of ratings in rs that
// share (ratee, rater), in slice order, and returns the extended slice. In
// snapshot order every pair's ratings are adjacent, so the runs are the
// interval's pairs, each exactly once, sorted by (ratee, rater). Value > 0
// counts positive, Value < 0 negative, and zero counts neither.
func PairRuns(rs []Rating, dst []PairRun) []PairRun {
	for lo := 0; lo < len(rs); {
		k := PairKey{Rater: rs[lo].Rater, Ratee: rs[lo].Ratee}
		var c PairCounts
		hi := lo
		for ; hi < len(rs); hi++ {
			r := &rs[hi]
			if r.Rater != k.Rater || r.Ratee != k.Ratee {
				break
			}
			if r.Value > 0 {
				c.Positive++
			} else if r.Value < 0 {
				c.Negative++
			}
		}
		dst = append(dst, PairRun{PairKey: k, PairCounts: c, Lo: lo, Hi: hi})
		lo = hi
	}
	return dst
}

// RunsIncrease reports whether runs strictly increase in (ratee, rater)
// order — whether the ratings they came from hold each pair in one run, as
// a snapshot-ordered slice does.
func RunsIncrease(runs []PairRun) bool {
	for i := 1; i < len(runs); i++ {
		a, b := &runs[i-1], &runs[i]
		if a.Ratee > b.Ratee || a.Ratee == b.Ratee && a.Rater >= b.Rater {
			return false
		}
	}
	return true
}

// Ledger collects ratings for the current reputation-update interval T:
// one slice in arrival order under one mutex, so it is safe for concurrent
// use. EndInterval atomically drains the interval in snapshot order.
type Ledger struct {
	numNodes int
	mu       sync.Mutex
	ratings  []Rating
}

// NewLedger creates a ledger for a population of numNodes peers.
func NewLedger(numNodes int) *Ledger {
	if numNodes < 0 {
		panic("rating: negative node count")
	}
	return &Ledger{numNodes: numNodes}
}

// NumNodes reports the population size the ledger was created for.
func (l *Ledger) NumNodes() int { return l.numNodes }

// Validate reports why a ledger refuses a rating whose node IDs are in
// range: a self-rating, which no reputation system accepts, or a NaN or
// infinite value, which no engine can fold and which has no place in the
// snapshot order. It returns nil for a rating a ledger accepts.
func Validate(r *Rating) error {
	if r.Rater == r.Ratee {
		return fmt.Errorf("rating: self-rating by node %d rejected", r.Rater)
	}
	if math.IsNaN(r.Value) || math.IsInf(r.Value, 0) {
		return fmt.Errorf("rating: non-finite value %v from node %d rejected", r.Value, r.Rater)
	}
	return nil
}

// check is Add's rule for one rating: a panic on out-of-range node IDs,
// then Validate's verdict.
func (l *Ledger) check(r *Rating) error {
	if r.Rater < 0 || r.Rater >= l.numNodes || r.Ratee < 0 || r.Ratee >= l.numNodes {
		panic(fmt.Sprintf("rating: node out of range in %+v (numNodes=%d)", *r, l.numNodes))
	}
	return Validate(r)
}

// Add appends a rating to the current interval. It panics on out-of-range
// node IDs (experiment construction errors) and rejects self-ratings and
// non-finite values.
func (l *Ledger) Add(r Rating) error {
	if err := l.check(&r); err != nil {
		return err
	}
	l.mu.Lock()
	l.ratings = append(l.ratings, r)
	l.mu.Unlock()
	return nil
}

// AddBatch appends a batch of ratings to the current interval under one
// lock acquisition, growing the slice at most once. Semantics match a
// sequence of Add calls — out-of-range node IDs panic before any rating
// lands, self-ratings and non-finite values are rejected per entry. The
// returned slice is index-aligned with rs; a nil return means every rating
// landed.
func (l *Ledger) AddBatch(rs []Rating) []error {
	var errs []error
	for i := range rs {
		if err := l.check(&rs[i]); err != nil {
			if errs == nil {
				errs = make([]error, len(rs))
			}
			errs[i] = err
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if free := cap(l.ratings) - len(l.ratings); free < len(rs) {
		newCap := max(len(l.ratings)+len(rs), 2*cap(l.ratings)) // append-style amortization
		l.ratings = append(make([]Rating, 0, newCap), l.ratings...)
	}
	if errs == nil {
		l.ratings = append(l.ratings, rs...)
		return nil
	}
	for i := range rs {
		if errs[i] == nil {
			l.ratings = append(l.ratings, rs[i])
		}
	}
	return errs
}

// Snapshot is the drained content of one reputation-update interval.
// Ratings are in snapshot order — by ratee, rater, cycle, category and
// value, with ties in ingest order (SnapshotOrder) — so downstream reputation
// updates are reproducible, and each pair's ratings are adjacent: PairRuns
// reads the interval's t+/t− counters off them. MaxSeq is the highest ingest
// sequence number among the drained ratings (zero when they are
// unsequenced) — the high-water mark durability layers use to tell which
// journaled records a completed drain already accounts for.
type Snapshot struct {
	Ratings []Rating
	MaxSeq  uint64
}

// EndInterval atomically drains and returns the interval's ratings,
// resetting the ledger for the next interval. Ratings come back in snapshot
// order, ties in arrival order.
func (l *Ledger) EndInterval() Snapshot {
	l.mu.Lock()
	rs := l.ratings
	l.ratings = nil
	l.mu.Unlock()
	snap := Snapshot{Ratings: SnapshotOrder(rs)}
	for i := range snap.Ratings {
		snap.MaxSeq = max(snap.MaxSeq, snap.Ratings[i].Seq)
	}
	return snap
}
