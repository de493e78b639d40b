package core

import (
	"cmp"
	"slices"

	"socialtrust/internal/obs"
	"socialtrust/internal/rating"
)

// Cache effectiveness metrics. A pair counts as a hit when every cacheable
// signal it needs was served from the cache (weighted similarity is never
// cacheable — the request tracker mutates without an epoch signal — and is
// excluded from the accounting). socialtrust_pairs_skipped_total is the
// incremental-engine view of the same event: a clean pair whose previous
// signals were reused instead of recomputed; socialtrust_dirty_pairs is the
// per-interval distribution of the dirty-set size (pairs that recomputed).
var (
	mSigCacheHits   = obs.C("signal_cache_hits_total")
	mSigCacheMisses = obs.C("signal_cache_misses_total")
	mPairsSkipped   = obs.C("socialtrust_pairs_skipped_total")
	mDirtyPairs     = obs.H("socialtrust_dirty_pairs",
		1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144)
)

func init() {
	obs.Help("signal_cache_hits_total", "Pairs whose cacheable social signals were all served from the cache.")
	obs.Help("signal_cache_misses_total", "Pairs that recomputed at least one cacheable social signal.")
	obs.Help("socialtrust_pairs_skipped_total", "Clean pairs per Adjust whose previous interval's signals were reused unchanged.")
	obs.Help("socialtrust_dirty_pairs", "Per-Adjust dirty-set size: pairs whose signals were recomputed.")
}

// sigCache memoizes pair signals in one row per rater, indexed by rater. A
// row is valid only while the closeness version it was filled at equals the
// rater's current one. The filter maintains one version per rater
// (SocialTrust.closeVer), bumped exactly when a graph mutation lands within
// the rater's closeness dependency radius (Graph.WithinHops over the touch
// log), so a matching version proves the closeness inputs are unchanged.
// Unweighted similarity is a pure function of the (immutable after
// construction) interest sets, so revalidating it by closeness version is
// only conservative.
//
// Only the miss group that serves a rater writes that rater's row, and the
// groups of one interval have distinct raters, so the rows need no lock.
type sigCache []sigRow

// sigRow is one rater's memoized signals: the closeness version they were
// computed at and one entry per ratee, ascending by ratee.
type sigRow struct {
	ver  uint64
	ents []sigEntry
}

type sigEntry struct {
	ratee int
	sig   pairSignals
}

func (r *sigRow) find(ratee int) (int, bool) {
	return slices.BinarySearchFunc(r.ents, ratee, func(e sigEntry, t int) int { return cmp.Compare(e.ratee, t) })
}

// get returns the cached signals for k if its rater's row was filled at the
// given closeness version.
func (c sigCache) get(k rating.PairKey, ver uint64) (pairSignals, bool) {
	r := &c[k.Rater]
	if r.ver != ver {
		return pairSignals{}, false
	}
	i, ok := r.find(k.Ratee)
	if !ok {
		return pairSignals{}, false
	}
	return r.ents[i].sig, true
}

// put stores the signals for k computed at the given rater closeness
// version. A row filled at another version is emptied first, so a version
// bump drops every stale entry of that rater.
func (c sigCache) put(k rating.PairKey, ver uint64, sig pairSignals) {
	r := &c[k.Rater]
	if r.ver != ver {
		r.ver, r.ents = ver, r.ents[:0]
	}
	i, ok := r.find(k.Ratee)
	if ok {
		r.ents[i].sig = sig
		return
	}
	r.ents = slices.Insert(r.ents, i, sigEntry{ratee: k.Ratee, sig: sig})
}

// reset drops every row (used by SocialTrust.Reset and ImportState).
func (c sigCache) reset() { clear(c) }
