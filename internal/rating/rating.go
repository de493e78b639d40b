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

const numShards = 16

// Journal receives every accepted rating before the ledger acknowledges it —
// the write-ahead hook durability layers implement. Append must return only
// after the ratings are safe against process death; an error vetoes the
// ingest.
type Journal interface {
	Append(rs []Rating) error
}

// Ledger collects ratings for the current reputation-update interval T.
// Writes are sharded by ratee so concurrent clients rating different servers
// rarely contend. EndInterval atomically drains the interval.
type Ledger struct {
	numNodes int
	journal  Journal
	shards   [numShards]ledgerShard

	// recovered maps sequence numbers already restored from a WAL replay to
	// how many times each was durably applied. While an entry is pending,
	// re-executed submissions carrying that Seq are acknowledged without
	// being applied or re-journaled — the crash-restart dedupe that keeps a
	// replayed interval from double-counting ratings.
	recMu     sync.Mutex
	recovered map[uint64]int
}

type ledgerShard struct {
	mu      sync.Mutex
	ratings []Rating
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

// SetJournal installs (or, with nil, removes) the write-ahead journal.
// Ratings accepted afterwards are appended to the journal before they are
// acknowledged. Not safe to call concurrently with Add/AddBatch.
func (l *Ledger) SetJournal(j Journal) { l.journal = j }

// MarkRecovered registers sequence numbers restored from a WAL replay, with
// per-seq multiplicity (fault injection can legitimately duplicate a
// delivery). Until consumed, a submission carrying one of these Seqs is
// acknowledged as a success but neither re-applied nor re-journaled.
func (l *Ledger) MarkRecovered(seqs map[uint64]int) {
	l.recMu.Lock()
	defer l.recMu.Unlock()
	if l.recovered == nil {
		l.recovered = make(map[uint64]int, len(seqs))
	}
	for s, n := range seqs {
		if s != 0 && n > 0 {
			l.recovered[s] += n
		}
	}
}

// consumeRecovered reports whether the rating's Seq is pending as recovered
// and, if so, consumes one occurrence.
func (l *Ledger) consumeRecovered(seq uint64) bool {
	if seq == 0 || l.recovered == nil {
		return false
	}
	l.recMu.Lock()
	defer l.recMu.Unlock()
	n := l.recovered[seq]
	if n == 0 {
		return false
	}
	if n == 1 {
		delete(l.recovered, seq)
	} else {
		l.recovered[seq] = n - 1
	}
	return true
}

func (l *Ledger) shard(ratee int) *ledgerShard {
	return &l.shards[ratee%numShards]
}

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

// Add appends a rating to the current interval. It panics on out-of-range
// node IDs (experiment construction errors) and rejects self-ratings and
// non-finite values.
func (l *Ledger) Add(r Rating) error {
	if r.Rater < 0 || r.Rater >= l.numNodes || r.Ratee < 0 || r.Ratee >= l.numNodes {
		panic(fmt.Sprintf("rating: node out of range in %+v (numNodes=%d)", r, l.numNodes))
	}
	if err := Validate(&r); err != nil {
		return err
	}
	if l.consumeRecovered(r.Seq) {
		return nil
	}
	if l.journal != nil {
		if err := l.journal.Append([]Rating{r}); err != nil {
			return fmt.Errorf("rating: journal append: %w", err)
		}
	}
	s := l.shard(r.Ratee)
	s.mu.Lock()
	s.ratings = append(s.ratings, r)
	s.mu.Unlock()
	return nil
}

// AddBatch appends a batch of ratings to the current interval, visiting each
// internal shard once: per-shard growth is pre-sized and each shard lock is
// taken once per call instead of once per rating. Semantics match a sequence
// of Add calls — out-of-range node IDs panic, self-ratings and non-finite
// values are rejected per entry. The returned slice is index-aligned with
// rs; a nil return means every rating landed.
func (l *Ledger) AddBatch(rs []Rating) []error {
	var errs []error
	var skip []bool
	var toJournal []Rating
	var need [numShards]int
	for i := range rs {
		r := &rs[i]
		if r.Rater < 0 || r.Rater >= l.numNodes || r.Ratee < 0 || r.Ratee >= l.numNodes {
			panic(fmt.Sprintf("rating: node out of range in %+v (numNodes=%d)", *r, l.numNodes))
		}
		if err := Validate(r); err != nil {
			if errs == nil {
				errs = make([]error, len(rs))
			}
			errs[i] = err
			continue
		}
		if l.consumeRecovered(r.Seq) {
			if skip == nil {
				skip = make([]bool, len(rs))
			}
			skip[i] = true
			continue
		}
		if l.journal != nil {
			toJournal = append(toJournal, *r)
		}
		need[r.Ratee%numShards]++
	}
	if len(toJournal) > 0 {
		if err := l.journal.Append(toJournal); err != nil {
			// The write-ahead append failed, so nothing was made durable:
			// veto every rating that was about to be applied.
			if errs == nil {
				errs = make([]error, len(rs))
			}
			for i := range rs {
				if errs[i] == nil && (skip == nil || !skip[i]) {
					errs[i] = fmt.Errorf("rating: journal append: %w", err)
				}
			}
			return errs
		}
	}
	// Counting sort: perm groups the indices of valid ratings by destination
	// shard, preserving input order within each shard (the same per-shard
	// insertion order sequential Adds would produce).
	var starts [numShards + 1]int
	for s := 0; s < numShards; s++ {
		starts[s+1] = starts[s] + need[s]
	}
	perm := make([]int, starts[numShards])
	fill := starts
	for i := range rs {
		if errs != nil && errs[i] != nil {
			continue
		}
		if skip != nil && skip[i] {
			continue
		}
		s := rs[i].Ratee % numShards
		perm[fill[s]] = i
		fill[s]++
	}
	for s := 0; s < numShards; s++ {
		lo, hi := starts[s], starts[s+1]
		if lo == hi {
			continue
		}
		sh := &l.shards[s]
		sh.mu.Lock()
		if free := cap(sh.ratings) - len(sh.ratings); free < hi-lo {
			newCap := len(sh.ratings) + (hi - lo)
			if newCap < 2*cap(sh.ratings) {
				newCap = 2 * cap(sh.ratings) // keep append-style amortization
			}
			grown := make([]Rating, len(sh.ratings), newCap)
			copy(grown, sh.ratings)
			sh.ratings = grown
		}
		for _, i := range perm[lo:hi] {
			sh.ratings = append(sh.ratings, rs[i])
		}
		sh.mu.Unlock()
	}
	return errs
}

// IntervalSize returns the number of ratings accumulated this interval.
func (l *Ledger) IntervalSize() int {
	n := 0
	for i := range l.shards {
		s := &l.shards[i]
		s.mu.Lock()
		n += len(s.ratings)
		s.mu.Unlock()
	}
	return n
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
// order, ties in insertion order.
func (l *Ledger) EndInterval() Snapshot {
	var runs [numShards][]Rating
	for i := range l.shards {
		s := &l.shards[i]
		s.mu.Lock()
		runs[i], s.ratings = s.ratings, nil
		s.mu.Unlock()
	}
	snap := Snapshot{Ratings: SnapshotOrder(runs[:]...)}
	for i := range snap.Ratings {
		snap.MaxSeq = max(snap.MaxSeq, snap.Ratings[i].Seq)
	}
	return snap
}
