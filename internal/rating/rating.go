// Package rating implements the rating substrate of a P2P reputation system:
// an append-only, concurrency-safe ledger of service ratings, per-interval
// positive/negative frequency counters t+(i,j) and t−(i,j) (the quantities a
// resource manager inspects in Section 4.3 of the paper), and system-wide
// rating-frequency statistics used to derive the suspicion thresholds θ·F.
package rating

import (
	"fmt"
	"maps"
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
	counts  map[PairKey]PairCounts
}

// NewLedger creates a ledger for a population of numNodes peers.
func NewLedger(numNodes int) *Ledger {
	if numNodes < 0 {
		panic("rating: negative node count")
	}
	l := &Ledger{numNodes: numNodes}
	for i := range l.shards {
		l.shards[i].counts = make(map[PairKey]PairCounts)
	}
	return l
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

// Add appends a rating to the current interval. It panics on out-of-range
// node IDs (experiment construction errors) and rejects self-ratings, which
// no reputation system accepts.
func (l *Ledger) Add(r Rating) error {
	if r.Rater < 0 || r.Rater >= l.numNodes || r.Ratee < 0 || r.Ratee >= l.numNodes {
		panic(fmt.Sprintf("rating: node out of range in %+v (numNodes=%d)", r, l.numNodes))
	}
	if r.Rater == r.Ratee {
		return fmt.Errorf("rating: self-rating by node %d rejected", r.Rater)
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
	key := PairKey{r.Rater, r.Ratee}
	c := s.counts[key]
	if r.Value > 0 {
		c.Positive++
	} else if r.Value < 0 {
		c.Negative++
	}
	s.counts[key] = c
	s.mu.Unlock()
	return nil
}

// AddBatch appends a batch of ratings to the current interval, visiting each
// internal shard once: per-shard growth is pre-sized and each shard lock is
// taken once per call instead of once per rating. Semantics match a sequence
// of Add calls — out-of-range node IDs panic, self-ratings are rejected per
// entry. The returned slice is index-aligned with rs; a nil return means
// every rating landed.
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
		if r.Rater == r.Ratee {
			if errs == nil {
				errs = make([]error, len(rs))
			}
			errs[i] = fmt.Errorf("rating: self-rating by node %d rejected", r.Rater)
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
			r := rs[i]
			sh.ratings = append(sh.ratings, r)
			key := PairKey{r.Rater, r.Ratee}
			c := sh.counts[key]
			if r.Value > 0 {
				c.Positive++
			} else if r.Value < 0 {
				c.Negative++
			}
			sh.counts[key] = c
		}
		sh.mu.Unlock()
	}
	return errs
}

// Counts returns the current-interval t+/t− counters for the directed pair.
func (l *Ledger) Counts(rater, ratee int) PairCounts {
	s := l.shard(ratee)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counts[PairKey{rater, ratee}]
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
// updates are reproducible. MaxSeq is the highest ingest sequence number
// among the drained ratings (zero when they are unsequenced) — the
// high-water mark durability layers use to tell which journaled records a
// completed drain already accounts for.
type Snapshot struct {
	Ratings []Rating
	Counts  map[PairKey]PairCounts
	MaxSeq  uint64
}

// EndInterval atomically drains and returns the interval's ratings and
// frequency counters, resetting the ledger for the next interval. Ratings
// come back in snapshot order, ties in insertion order.
func (l *Ledger) EndInterval() Snapshot {
	var runs [numShards][]Rating
	var counts [numShards]map[PairKey]PairCounts
	pairs := 0
	for i := range l.shards {
		s := &l.shards[i]
		s.mu.Lock()
		runs[i], counts[i] = s.ratings, s.counts
		s.ratings, s.counts = nil, make(map[PairKey]PairCounts)
		s.mu.Unlock()
		pairs += len(counts[i])
	}
	// A pair's ratings share a ratee and so an internal shard: the shards'
	// counters hold disjoint keys.
	snap := Snapshot{Ratings: SnapshotOrder(runs[:]...), Counts: make(map[PairKey]PairCounts, pairs)}
	for _, c := range counts {
		maps.Copy(snap.Counts, c)
	}
	for i := range snap.Ratings {
		snap.MaxSeq = max(snap.MaxSeq, snap.Ratings[i].Seq)
	}
	return snap
}

// FrequencyStats describes the distribution of per-pair rating frequencies
// in one interval, the empirical basis of the paper's thresholds (e.g.
// Overstock's mean 2.2 ratings/month, max positive 21, max negative 2).
type FrequencyStats struct {
	MeanPositive, MaxPositive, MinPositive float64
	MeanNegative, MaxNegative, MinNegative float64
	Pairs                                  int
}

// Frequencies computes FrequencyStats over a drained interval's counters.
// Pairs with zero activity do not exist in the map and are excluded, as in
// the paper's trace statistics (only observed rating pairs are counted).
func Frequencies(counts map[PairKey]PairCounts) FrequencyStats {
	var fs FrequencyStats
	first := true
	var sumP, sumN float64
	nP, nN := 0, 0
	for _, c := range counts {
		fs.Pairs++
		p, n := float64(c.Positive), float64(c.Negative)
		if c.Positive > 0 {
			sumP += p
			nP++
			if first || p > fs.MaxPositive {
				fs.MaxPositive = p
			}
			if fs.MinPositive == 0 || p < fs.MinPositive {
				fs.MinPositive = p
			}
		}
		if c.Negative > 0 {
			sumN += n
			nN++
			if n > fs.MaxNegative {
				fs.MaxNegative = n
			}
			if fs.MinNegative == 0 || n < fs.MinNegative {
				fs.MinNegative = n
			}
		}
		first = false
	}
	if nP > 0 {
		fs.MeanPositive = sumP / float64(nP)
	}
	if nN > 0 {
		fs.MeanNegative = sumN / float64(nN)
	}
	return fs
}
