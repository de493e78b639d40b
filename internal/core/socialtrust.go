// Package core implements SocialTrust, the paper's contribution: a
// collusion-deterrence layer that wraps any reputation engine and re-weights
// suspicious ratings using two social signals, the social closeness Ωc and
// the interest similarity Ωs between rater and ratee.
//
// Per Section 4.3 of the paper, at the end of each reputation-update
// interval SocialTrust inspects the per-pair positive/negative rating
// frequencies t+(i,j), t−(i,j). Pairs exceeding the frequency thresholds are
// checked against the suspicious behaviors mined from the Overstock trace:
//
//	B1: frequent high ratings across a long social distance (Ωc very low)
//	B2: frequent high ratings to a low-reputed but socially very close peer
//	B3: frequent high ratings despite few common interests (Ωs very low)
//	B4: frequent low ratings to a peer with many common interests (Ωs high)
//
// A matching pair's ratings are shrunk by the two-dimensional Gaussian
// filter of Equation 9, centered on the interval's system baseline, and
// additionally frequency-normalized — a suspected pair's rating volume is
// scaled down to the average pair's frequency F, so spam volume cannot
// substitute for trust — before the wrapped engine sees them.
package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"socialtrust/internal/interest"
	"socialtrust/internal/obs"
	"socialtrust/internal/obs/event"
	"socialtrust/internal/obs/span"
	"socialtrust/internal/par"
	"socialtrust/internal/rating"
	"socialtrust/internal/reputation"
	"socialtrust/internal/socialgraph"
	"socialtrust/internal/stats"
)

// Filter metrics. socialtrust_filtered_total{behavior=...} counts ratings
// shrunk per suspicious behavior; a pair matching several behaviors counts
// toward each, so the series sum can exceed the number of distinct ratings
// adjusted (tracked by socialtrust_ratings_adjusted_total).
var (
	mFilteredByBehavior = map[Behavior]*obs.Counter{
		B1: obs.C(obs.Label("socialtrust_filtered_total", "behavior", "B1")),
		B2: obs.C(obs.Label("socialtrust_filtered_total", "behavior", "B2")),
		B3: obs.C(obs.Label("socialtrust_filtered_total", "behavior", "B3")),
		B4: obs.C(obs.Label("socialtrust_filtered_total", "behavior", "B4")),
	}
	mPairsAdjusted   = obs.C("socialtrust_pairs_adjusted_total")
	mRatingsAdjusted = obs.C("socialtrust_ratings_adjusted_total")
	mAdjustLat       = obs.H("socialtrust_adjust_seconds")
	mAdjustBlocks    = obs.C("socialtrust_adjust_parallel_blocks_total")
)

func init() {
	obs.Help("socialtrust_filtered_total", "Ratings shrunk per suspicious behavior (a pair matching several behaviors counts toward each).")
	obs.Help("socialtrust_pairs_adjusted_total", "Distinct rater-ratee pairs re-weighted by the filter.")
	obs.Help("socialtrust_ratings_adjusted_total", "Distinct ratings re-weighted by the filter.")
	obs.Help("socialtrust_adjust_seconds", "Wall time of one full Adjust pass.")
	obs.Help("socialtrust_adjust_parallel_blocks_total", "Pair blocks classified by the parallel Adjust path.")
}

// Behavior identifies which suspicious pattern a pair matched.
type Behavior int

// The four suspicious collusion behaviors of Section 3.
const (
	B1 Behavior = 1 << iota // distant pair, frequent high ratings
	B2                      // close pair, low-reputed ratee, frequent high ratings
	B3                      // few common interests, frequent high ratings
	B4                      // many common interests, frequent low ratings
)

// String renders the behavior set ("B1|B3").
func (b Behavior) String() string {
	if b == 0 {
		return "none"
	}
	names := []struct {
		bit  Behavior
		name string
	}{{B1, "B1"}, {B2, "B2"}, {B3, "B3"}, {B4, "B4"}}
	out := ""
	for _, n := range names {
		if b&n.bit != 0 {
			if out != "" {
				out += "|"
			}
			out += n.name
		}
	}
	return out
}

// Fixed filter parameters. The Gaussian of Equation 9 is centered on the
// system baseline: the empirical distribution of Ωc/Ωs over non-suspicious
// transacting pairs in the current interval — the paper's "average Ωc/Ωs of
// a pair of transaction peers in the system based on the empirical result"
// (Sections 4.1–4.2, with the Overstock calibration 0.423/1/0.13 as the
// worked example).
const (
	// alpha is the Gaussian peak height α (paper: 1).
	alpha = 1.0
	// theta scales the adaptive frequency thresholds: a pair is
	// frequency-suspicious when its interval count exceeds θ·F, F being the
	// mean per-pair frequency.
	theta = 3.0
	// closenessLowQ / closenessHighQ are the quantiles of the baseline
	// closeness distribution defining "very low"/"very high" closeness
	// (Tcl, Tch). The similarity gates Tsl/Tsh follow the paper's Section
	// 4.2 rule and sit at the baseline mean: B3 fires below it ("share few
	// interests"), B4 at or above it ("share many interests").
	closenessLowQ, closenessHighQ = 0.1, 0.9
)

// Config parameterizes SocialTrust.
type Config struct {
	NumNodes int

	// UseCloseness / UseSimilarity enable the two signal dimensions
	// (both true by default via New; disable one for ablations).
	UseCloseness, UseSimilarity bool

	// Closeness configures the Ωc computation; Closeness.Weighted selects
	// the falsification-resistant Equation 10.
	Closeness socialgraph.ClosenessParams
	// WeightedSimilarity selects the request-weighted Equation 11.
	WeightedSimilarity bool

	// Workers bounds the parallelism of per-pair signal computation
	// (0 = GOMAXPROCS).
	Workers int

	// FullRecompute disables every incremental shortcut: the signal cache
	// is bypassed and all pair signals recompute from the live graph each
	// Adjust. It is the reference mode the incremental engine is pinned
	// bit-identical against (TestIncrementalMatchesFullRecompute,
	// TestFullSimIncrementalBitIdentity); production deployments leave it
	// false.
	FullRecompute bool
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	// Fill only the closeness fields left at zero: Weighted is a choice, not
	// a default, and must survive a config that omits the hop cutoff.
	def := socialgraph.DefaultClosenessParams()
	if c.Closeness.MaxPathHops == 0 {
		c.Closeness.MaxPathHops = def.MaxPathHops
	}
	if c.Closeness.Lambda == 0 {
		c.Closeness.Lambda = def.Lambda
	}
	return c
}

// PairAdjustment records how one directed pair was treated in an interval,
// for diagnostics, metrics and tests.
type PairAdjustment struct {
	Pair      rating.PairKey
	Weight    float64 // multiplicative factor applied to the pair's ratings
	Behaviors Behavior
	Closeness float64 // Ωc(i,j)
	Similar   float64 // Ωs(i,j)
}

// Report summarizes one interval's filtering pass.
type Report struct {
	// Adjusted lists every pair whose ratings were re-weighted (Weight<1).
	Adjusted []PairAdjustment
	// PosThreshold / NegThreshold are the frequency thresholds used.
	PosThreshold, NegThreshold float64
	// Baseline stats actually used for the Gaussian center.
	ClosenessBaseline, SimilarityBaseline BaselineStats
}

// BaselineStats describes the distribution the Gaussian centers on. The
// filter's width uses the robust [Lo,Hi] quantile range when available
// (falling back to Min/Max): a single legitimate heavy pair must not be able
// to stretch the bell so wide that extreme colluder signals pass through.
type BaselineStats struct {
	Mean, Min, Max float64
	Lo, Hi         float64 // robust range quantiles; both zero when unset
	N              int
}

// width returns the Gaussian's c parameter for these stats.
func (b BaselineStats) width() float64 {
	if b.Hi > b.Lo {
		return b.Hi - b.Lo
	}
	return b.Max - b.Min
}

// SocialTrust wraps a reputation engine with the collusion filter. It
// implements reputation.Engine itself, so it can be dropped anywhere an
// engine is expected.
type SocialTrust struct {
	cfg     Config
	graph   *socialgraph.Graph
	sets    []interest.Set
	tracker *interest.Tracker
	inner   reputation.Engine

	// lastMu guards last: Update (and Reset) publish the newest report
	// while observers call LastReport from other goroutines (stress
	// harnesses, metric scrapers). The Report value is copied out under the
	// lock; its Adjusted slice is freshly built per pass and never mutated
	// after publication, so readers may use it without further locking.
	lastMu sync.Mutex
	last   Report

	// intervals counts Adjust passes (mutated under adjustMu): the 1-based
	// interval stamped on flight-recorder FilterDecision events. When the
	// simulator drives one Update per simulation cycle this equals the
	// cycle number, aligning decision events with CycleSeries records.
	intervals uint64

	// sigCache memoizes pair signals in one ratee-sorted row per rater,
	// valid while the row's version equals the rater's closeness version
	// (closeVer below): a pair recomputes only when the graph actually
	// changed within its rater's closeness dependency radius, so interval
	// cost tracks activity, not N. Allocated once, NumNodes rows.
	sigCache sigCache
	// closeVer holds one closeness version per rater. syncGraph (run at
	// the top of every Adjust) reads the graph's touch log since graphSeen,
	// walks the affected set — every node within depHops of a touched node —
	// and bumps exactly those raters' versions. When the touch log cannot
	// answer (overflow or a global mutation) every version bumps, which is
	// the old any-epoch-change-invalidates-everything behavior.
	closeVer  []uint64
	graphSeen uint64 // graph epoch the versions are synced to
	depHops   int    // closeness dependency radius: max(MaxHops, 2)
	// Reusable scratch for syncGraph's touch-log drain and affected-set BFS.
	touchScratch []socialgraph.NodeID
	affScratch   []socialgraph.NodeID
	seenScratch  []bool

	// adjustMu serializes Adjust (and therefore Update), which reuses the
	// scratch buffers below across calls so a warm-cache interval allocates
	// almost nothing. runScratch holds the interval's pair runs in snapshot
	// order and pairScratch the same runs in (rater, ratee) order; raterStart
	// is the counting sort's NumNodes+1 offsets, allocated once like
	// closeVer. lowUtil counts consecutive intervals whose pair count stayed
	// far below the scratch capacity (see maybeShrinkScratch).
	adjustMu     sync.Mutex
	runScratch   []rating.PairRun
	pairScratch  []rating.PairRun
	raterStart   []int
	sigScratch   []pairSignals
	missScratch  []sigMiss
	groupScratch []int
	closeVals    []float64
	simVals      []float64
	behavScratch []Behavior
	gwScratch    []float64
	fsScratch    []float64
	partScratch  []float64
	lowUtil      int
}

// sigMiss marks one pair of the current interval whose signals (or part of
// them) must be recomputed.
type sigMiss struct {
	idx  int   // position in the sorted pair slice
	need uint8 // needClose / needSim bits
}

const (
	needClose uint8 = 1 << iota
	needSim
)

var _ reputation.Engine = (*SocialTrust)(nil)

// New builds a SocialTrust filter around inner. sets must have one interest
// set per node; tracker may be nil when Config.WeightedSimilarity is false.
func New(cfg Config, graph *socialgraph.Graph, sets []interest.Set, tracker *interest.Tracker, inner reputation.Engine) *SocialTrust {
	if cfg.NumNodes <= 0 {
		panic("core: NumNodes must be positive")
	}
	if graph == nil || inner == nil {
		panic("core: graph and inner engine are required")
	}
	if len(sets) != cfg.NumNodes {
		panic(fmt.Sprintf("core: %d interest sets for %d nodes", len(sets), cfg.NumNodes))
	}
	if cfg.WeightedSimilarity && tracker == nil {
		panic("core: WeightedSimilarity requires a request tracker")
	}
	cfg = cfg.withDefaults()
	if !cfg.UseCloseness && !cfg.UseSimilarity {
		cfg.UseCloseness, cfg.UseSimilarity = true, true
	}
	dep := cfg.Closeness.MaxHops()
	if dep < 2 {
		// Margin: the common-friend branch of Ωc reads distance-2 state
		// regardless of the path cutoff.
		dep = 2
	}
	return &SocialTrust{
		cfg:        cfg,
		graph:      graph,
		sets:       sets,
		tracker:    tracker,
		inner:      inner,
		sigCache:   make(sigCache, cfg.NumNodes),
		closeVer:   make([]uint64, cfg.NumNodes),
		raterStart: make([]int, cfg.NumNodes+1),
		graphSeen:  graph.Epoch(), // cache is empty; nothing older to invalidate
		depHops:    dep,
	}
}

// Name implements reputation.Engine.
func (s *SocialTrust) Name() string { return s.inner.Name() + "+SocialTrust" }

// Reset implements reputation.Engine, clearing both the filter state and the
// wrapped engine.
func (s *SocialTrust) Reset() {
	s.lastMu.Lock()
	s.last = Report{}
	s.lastMu.Unlock()
	s.adjustMu.Lock()
	s.intervals = 0
	s.sigCache.reset()
	s.adjustMu.Unlock()
	s.inner.Reset()
}

// FilterState is the filter's complete persistent state: the interval
// counter stamped on FilterDecision events. The signal cache is derived
// state — it rebuilds from the graph on the first Adjust after a restore — so
// it is deliberately not part of the snapshot.
type FilterState struct {
	Intervals uint64
}

// ExportState copies the filter state for snapshotting. The wrapped engine's
// state is exported separately by the caller (it is engine-specific).
func (s *SocialTrust) ExportState() FilterState {
	s.adjustMu.Lock()
	defer s.adjustMu.Unlock()
	return FilterState{Intervals: s.intervals}
}

// ImportState restores a previously exported filter state bit-exactly. The
// signal cache is cleared so the next Adjust recomputes from the restored
// graph.
func (s *SocialTrust) ImportState(st FilterState) {
	s.adjustMu.Lock()
	defer s.adjustMu.Unlock()
	s.intervals = st.Intervals
	s.sigCache.reset()
	for i := range s.closeVer {
		s.closeVer[i] = 0
	}
	s.graphSeen = s.graph.Epoch()
}

// ResetNode implements reputation.Engine by forwarding the reset to the
// wrapped engine: the filter keeps no rating state of its own. The caller is
// responsible for the social-graph side (Graph.RemoveNodeEdges, which also
// invalidates the node's cached signals) and the request tracker, which this
// filter only reads.
func (s *SocialTrust) ResetNode(node int) { s.inner.ResetNode(node) }

// Reputations implements reputation.Engine by delegating to the wrapped
// engine (SocialTrust re-scales ratings, not the final vector).
func (s *SocialTrust) Reputations() []float64 { return s.inner.Reputations() }

// Reputation implements reputation.Engine.
func (s *SocialTrust) Reputation(node int) float64 { return s.inner.Reputation(node) }

// LastReport returns the filtering report of the most recent Update. It is
// safe to call concurrently with Update/Reset; the returned Report's
// Adjusted slice is immutable after publication and may be read freely.
func (s *SocialTrust) LastReport() Report {
	s.lastMu.Lock()
	defer s.lastMu.Unlock()
	return s.last
}

// Update filters the snapshot per Section 4.3 and forwards the adjusted
// ratings to the wrapped engine. Update takes the snapshot: it scales the
// flagged pairs' ratings in place in snap.Ratings and hands that same slice
// to the engine, so hand each drained snapshot to one Update and do not
// reuse its ratings. (A snapshot out of snapshot order is first put in order
// in a fresh slice, which is what the engine then receives.)
func (s *SocialTrust) Update(snap rating.Snapshot) {
	adjusted, report := s.adjust(snap, true)
	s.lastMu.Lock()
	s.last = report
	s.lastMu.Unlock()
	s.inner.Update(adjusted)
}

// pairSignals caches the social signals of one directed pair.
type pairSignals struct {
	closeness float64
	similar   float64
}

// Adjust computes per-pair weights for one interval snapshot and returns a
// snapshot with re-weighted rating values plus the filtering report. The
// returned ratings are in snapshot order, as a drained snapshot's already
// are. It does not mutate the input — it scales a copy when a pair is
// flagged, and returns the input's ratings when none is — and does not
// advance filter state, so it can be used standalone for what-if analysis.
// Concurrent Adjust calls serialize on an internal lock (they share the
// signal cache and scratch buffers).
func (s *SocialTrust) Adjust(snap rating.Snapshot) (rating.Snapshot, Report) {
	return s.adjust(snap, false)
}

// adjust is Adjust, scaling the flagged runs in snap.Ratings itself when
// owned is true.
func (s *SocialTrust) adjust(snap rating.Snapshot, owned bool) (rating.Snapshot, Report) {
	sp := mAdjustLat.Start()
	defer sp.End()
	s.adjustMu.Lock()
	defer s.adjustMu.Unlock()
	s.intervals++
	if !s.cfg.FullRecompute {
		s.syncGraph()
	}

	// Interval tracing: the adjust span hangs off the interval driver's
	// ambient context; sub-phase children share its phase, so only the
	// top-level span feeds the attribution ledger. Every site is nil-gated —
	// with tracing off each costs one atomic load (see BenchmarkSpanSiteDisabled)
	// and zero allocations (TestWarmAdjustAllocations pins the warm path).
	tsp := span.Ambient("core.adjust", span.PhaseAdjust)

	// Flight recorder: when enabled, every shrunk pair emits one
	// FilterDecision with its full evidence chain. rec is latched once so
	// the decision list and the emission agree even if the recorder is
	// toggled mid-pass; the disabled path costs one atomic load and never
	// allocates (the decisions slice stays nil).
	rec := event.Current()
	var decisions []event.FilterDecision

	// The interval's pairs are the runs of its snapshot-ordered ratings. A
	// snapshot out of (ratee, rater) order — one a caller built by hand —
	// shows as runs that do not strictly increase, and is put in snapshot
	// order first.
	rs := snap.Ratings
	runs := rating.PairRuns(rs, s.runScratch[:0])
	if !rating.RunsIncrease(runs) {
		rs, owned = rating.SnapshotOrder(rs), true
		runs = rating.PairRuns(rs, runs[:0])
	}
	s.runScratch = runs[:0]
	pairs := s.byRater(runs)

	if cap(s.sigScratch) < len(pairs) {
		s.sigScratch = make([]pairSignals, len(pairs))
	}
	signals := s.sigScratch[:len(pairs)]
	ssp := tsp.Child("adjust.signals", span.PhaseAdjust).SetInt("pairs", int64(len(pairs)))
	s.computeSignals(pairs, signals)
	ssp.End()

	workers := s.cfg.Workers
	if len(pairs) < parallelMinPairs {
		workers = 1 // goroutine fan-out costs more than it saves
	}

	totalRatings := 0
	for i := range pairs {
		totalRatings += pairs[i].Total()
	}
	bsp := tsp.Child("adjust.baseline", span.PhaseAdjust)
	posT, negT := thresholdsFrom(totalRatings, len(pairs))
	meanF := meanFrom(totalRatings, len(pairs))
	base := s.systemBaseline(signals, pairs, posT, negT)
	bsp.End()

	// Closeness thresholds Tcl/Tch are percentiles of the baseline
	// population; the similarity gates sit at the baseline mean
	// (Section 4.2's (Ωs − Ω̄s) ≶ 0 rule).
	tcl, tch := quantiles(base.closenessValues, closenessLowQ, closenessHighQ)
	tsl, tsh := base.similarity.Mean, base.similarity.Mean
	if base.similarity.N == 0 {
		tsl, tsh = 0, math.Inf(1)
	}

	reps := s.inner.Reputations()
	// TR, below which a ratee counts as low-reputed for B2: twice the
	// average normalized reputation, the paper's TR = 0.01 at 200 nodes.
	lowRep := 2 / float64(s.cfg.NumNodes)

	report := Report{
		PosThreshold:       posT,
		NegThreshold:       negT,
		ClosenessBaseline:  base.closeness,
		SimilarityBaseline: base.similarity,
	}

	// Classify phase: behavior masks, Gaussian weights and frequency scales
	// land in index-aligned scratch, computed over fixed pair blocks.
	// Per-pair results are independent, so the partition never changes a
	// value — it only decides which goroutine computes it.
	if cap(s.behavScratch) < len(pairs) {
		s.behavScratch = make([]Behavior, len(pairs))
		s.gwScratch = make([]float64, len(pairs))
		s.fsScratch = make([]float64, len(pairs))
	}
	behav := s.behavScratch[:len(pairs)]
	gws := s.gwScratch[:len(pairs)]
	fss := s.fsScratch[:len(pairs)]

	nb := (len(pairs) + adjustChunk - 1) / adjustChunk
	if workers > 1 {
		mAdjustBlocks.Add(int64(nb))
	}
	csp := tsp.Child("adjust.classify", span.PhaseAdjust).SetInt("blocks", int64(nb))
	forFixedBlocks(len(pairs), adjustChunk, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			c := pairs[i].PairCounts
			sig := signals[i]
			var behaviors Behavior
			// High-side comparisons are inclusive: similarity is a ratio of
			// small integers, so the top quantile is frequently attained
			// exactly (e.g. Tsh = 1.0) and a strict inequality would be
			// unreachable. The frequency gate already limits false positives.
			if float64(c.Positive) > posT {
				if s.cfg.UseCloseness && sig.closeness < tcl {
					behaviors |= B1
				}
				if s.cfg.UseCloseness && sig.closeness >= tch && reps[pairs[i].Ratee] < lowRep {
					behaviors |= B2
				}
				if s.cfg.UseSimilarity && sig.similar < tsl {
					behaviors |= B3
				}
			}
			if float64(c.Negative) > negT {
				if s.cfg.UseSimilarity && sig.similar >= tsh {
					behaviors |= B4
				}
			}
			behav[i] = behaviors
			if behaviors == 0 {
				continue
			}
			// The Gaussian handles the social-signal anomaly; frequency
			// normalization handles the volume anomaly: once a pair is
			// suspected, its rating volume is scaled down to the average
			// pair's frequency F, so no flagged pair can out-shout a normal
			// one no matter how fast it rates.
			gws[i] = s.gaussianWeight(sig, base)
			fss[i] = freqScale(c, behaviors, meanF)
		}
	})
	csp.End()

	// Ordered merge: one serial pass in sorted-pair order builds the report
	// and flight-recorder decisions, so metric totals, report ordering and
	// event streams are identical no matter how the classify phase was
	// partitioned.
	msp := tsp.Child("adjust.merge", span.PhaseAdjust)
	for i := range pairs {
		behaviors := behav[i]
		if behaviors == 0 {
			continue
		}
		k, c := pairs[i].PairKey, pairs[i].PairCounts
		mPairsAdjusted.Inc()
		mRatingsAdjusted.Add(int64(c.Total()))
		for bit, counter := range mFilteredByBehavior {
			if behaviors&bit == 0 {
				continue
			}
			// Shrunk ratings per behavior: the polarity that triggered it.
			if bit == B4 {
				counter.Add(int64(c.Negative))
			} else {
				counter.Add(int64(c.Positive))
			}
		}
		w := gws[i] * fss[i]
		if rec != nil {
			// The evidence chain names the baseline stats of each enabled
			// dimension.
			closeBase, simBase := s.gaussianBases(base)
			decisions = append(decisions, event.FilterDecision{
				Interval:            int(s.intervals),
				Rater:               k.Rater,
				Ratee:               k.Ratee,
				Mask:                int(behaviors),
				Behaviors:           behaviors.String(),
				Closeness:           signals[i].closeness,
				Similarity:          signals[i].similar,
				Positive:            c.Positive,
				Negative:            c.Negative,
				PosThreshold:        posT,
				NegThreshold:        negT,
				ClosenessBaseMean:   closeBase.Mean,
				ClosenessBaseWidth:  closeBase.width(),
				ClosenessBaseN:      closeBase.N,
				SimilarityBaseMean:  simBase.Mean,
				SimilarityBaseWidth: simBase.width(),
				SimilarityBaseN:     simBase.N,
				GaussianWeight:      gws[i],
				FreqScale:           fss[i],
				Weight:              w,
			})
		}
		report.Adjusted = append(report.Adjusted, PairAdjustment{
			Pair:      k,
			Weight:    w,
			Behaviors: behaviors,
			Closeness: signals[i].closeness,
			Similar:   signals[i].similar,
		})
	}

	msp.End()

	// Rewrite: scale each flagged pair's run, in a copy unless the ratings
	// are owned. A decision sums its pair's values in rating order.
	rsp := tsp.Child("adjust.rewrite", span.PhaseAdjust).SetInt("ratings", int64(len(rs)))
	if !owned && len(report.Adjusted) > 0 {
		rs = slices.Clone(rs)
	}
	out := rating.Snapshot{Ratings: rs, MaxSeq: snap.MaxSeq}
	d := 0
	for i := range pairs {
		if behav[i] == 0 {
			continue
		}
		w := gws[i] * fss[i]
		for j := pairs[i].Lo; j < pairs[i].Hi; j++ {
			r := &out.Ratings[j]
			if decisions != nil {
				decisions[d].PreValue += r.Value
				decisions[d].PostValue += r.Value * w
			}
			r.Value *= w
		}
		d++
	}
	rsp.End()
	for i := range decisions {
		rec.RecordFilter(decisions[i])
	}
	s.maybeShrinkScratch(len(pairs))
	tsp.SetInt("pairs", int64(len(pairs))).SetInt("flagged", int64(len(report.Adjusted))).End()
	return out, report
}

// byRater returns runs, which PairRuns yields in (ratee, rater) order, in
// (rater, ratee) order: a stable counting sort by rater into pairScratch.
// raterStart's clear and prefix sum cost O(NumNodes) per non-empty interval,
// on one array the filter owns.
func (s *SocialTrust) byRater(runs []rating.PairRun) []rating.PairRun {
	if cap(s.pairScratch) < len(runs) {
		s.pairScratch = make([]rating.PairRun, len(runs))
	}
	out := s.pairScratch[:len(runs)]
	if len(runs) == 0 {
		return out
	}
	start := s.raterStart
	clear(start)
	for i := range runs {
		start[runs[i].Rater+1]++
	}
	for r := 1; r < len(start); r++ {
		start[r] += start[r-1]
	}
	for i := range runs {
		r := runs[i].Rater
		out[start[r]] = runs[i]
		start[r]++
	}
	return out
}

// Parallel-phase tuning. parallelMinPairs gates goroutine fan-out: below
// it every phase runs serially even when Workers > 1, so the paper-scale
// 200-node warm path never pays spawn overhead. adjustChunk is the block
// size of the index-partitioned phases. Neither changes results — they only
// decide which goroutine computes them.
const (
	parallelMinPairs = 2048
	adjustChunk      = 2048
)

// forFixedBlocks covers [0, n) in fixed chunks of size chunk.
func forFixedBlocks(n, chunk, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	nb := (n + chunk - 1) / chunk
	par.ForBlocks(nb, workers, func(b int) {
		lo := b * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		fn(lo, hi)
	})
}

// Scratch-shrink policy: one huge interval must not pin peak-sized scratch
// forever. When the pair count stays under a quarter of the scratch
// capacity for shrinkAfter consecutive intervals, every per-pair buffer is
// reallocated near current demand; buffers at or below shrinkMinCap are
// never churned.
const (
	shrinkMinCap = 1024
	shrinkAfter  = 4
)

func (s *SocialTrust) maybeShrinkScratch(nPairs int) {
	if cap(s.pairScratch) <= shrinkMinCap || nPairs*4 >= cap(s.pairScratch) {
		s.lowUtil = 0
		return
	}
	if s.lowUtil++; s.lowUtil < shrinkAfter {
		return
	}
	s.lowUtil = 0
	c := nPairs * 2
	if c < shrinkMinCap {
		c = shrinkMinCap
	}
	s.runScratch = make([]rating.PairRun, 0, c)
	s.pairScratch = make([]rating.PairRun, 0, c)
	s.sigScratch = make([]pairSignals, 0, c)
	s.missScratch = make([]sigMiss, 0, c)
	s.behavScratch = make([]Behavior, 0, c)
	s.gwScratch = make([]float64, 0, c)
	s.fsScratch = make([]float64, 0, c)
	s.closeVals = make([]float64, 0, c)
	s.simVals = make([]float64, 0, c)
}

// syncGraph brings the per-rater closeness versions up to date with the
// graph: it drains the touch log accumulated since the last sync, walks the
// affected set — every node within depHops friendship hops of a touched
// node, the dependency radius of one closeness computation — and bumps
// exactly those raters' versions, so their cached signals stop matching. When the touch log cannot answer (overflow, or a global
// mutation such as ResetInteractions) every version bumps: full
// invalidation, the pre-incremental behavior. Runs under adjustMu; on a
// quiescent graph it is a single atomic load.
func (s *SocialTrust) syncGraph() {
	epoch := s.graph.Epoch()
	if epoch == s.graphSeen {
		return
	}
	touched, ok := s.graph.TouchedSince(s.graphSeen, s.touchScratch[:0])
	s.touchScratch = touched[:0]
	switch {
	case !ok:
		for i := range s.closeVer {
			s.closeVer[i]++
		}
	case len(touched) > 0:
		if s.seenScratch == nil {
			s.seenScratch = make([]bool, s.cfg.NumNodes)
		}
		aff := s.graph.WithinHops(touched, s.depHops, s.seenScratch, s.affScratch[:0])
		s.affScratch = aff[:0]
		for _, r := range aff {
			s.closeVer[r]++
		}
	}
	s.graphSeen = epoch
}

// computeSignals fills out[i] with Ωc and Ωs for pairs[i]. Pairs whose
// signals are cached at their rater's current closeness version are served
// without touching the graph; the misses are grouped by rater (pairs arrive
// rater-sorted, so each rater is one group and owns its cache row) and each
// rater group runs one batched ClosenessFrom — one shared BFS and
// common-friend index per rater instead of one per pair — with the groups
// fanned out across Workers. Results are bit-identical to the direct
// per-pair path on a quiescent graph. Under Config.FullRecompute the cache
// is bypassed entirely and every pair recomputes.
func (s *SocialTrust) computeSignals(pairs []rating.PairRun, out []pairSignals) {
	simStatic := s.cfg.UseSimilarity && !s.cfg.WeightedSimilarity

	miss := s.missScratch[:0]
	var hits, misses int64
	for i := range pairs {
		k := pairs[i].PairKey
		var sig pairSignals
		ok := false
		if !s.cfg.FullRecompute {
			sig, ok = s.sigCache.get(k, s.closeVer[k.Rater])
		}
		var need uint8
		if !ok {
			if s.cfg.UseCloseness {
				need |= needClose
			}
			if s.cfg.UseSimilarity {
				need |= needSim
			}
		} else if s.cfg.UseSimilarity && !simStatic {
			// Weighted similarity reads the live request tracker and is
			// recomputed on every pass; only closeness is served cached.
			need |= needSim
			sig.similar = 0
		}
		out[i] = sig
		if need&needClose != 0 || (need&needSim != 0 && simStatic) {
			misses++
		} else {
			hits++
		}
		if need != 0 {
			miss = append(miss, sigMiss{idx: i, need: need})
		}
	}
	s.missScratch = miss[:0]
	mSigCacheHits.Add(hits)
	mSigCacheMisses.Add(misses)
	mPairsSkipped.Add(hits)
	mDirtyPairs.Observe(float64(misses))
	if len(miss) == 0 {
		return
	}

	// Group boundaries over the miss list: pairs are rater-sorted and the
	// miss list preserves their order, so each rater's misses are one run.
	groups := append(s.groupScratch[:0], 0)
	for t := 1; t < len(miss); t++ {
		if pairs[miss[t].idx].Rater != pairs[miss[t-1].idx].Rater {
			groups = append(groups, t)
		}
	}
	groups = append(groups, len(miss))
	s.groupScratch = groups[:0]

	par.ForBlocks(len(groups)-1, s.cfg.Workers, func(gi int) {
		s.computeMissGroup(pairs, out, miss[groups[gi]:groups[gi+1]])
	})
}

// computeMissGroup recomputes the missing signals of one rater's pairs and
// stores them in the rater's cache row at its current closeness version,
// which empties a row filled at an older one. All miss entries share the
// same rater; closeness goes through the batched single-source path.
func (s *SocialTrust) computeMissGroup(pairs []rating.PairRun, out []pairSignals, miss []sigMiss) {
	rater := pairs[miss[0].idx].Rater
	var ratees []socialgraph.NodeID
	var slots []int
	for _, m := range miss {
		if m.need&needClose != 0 {
			ratees = append(ratees, socialgraph.NodeID(pairs[m.idx].Ratee))
			slots = append(slots, m.idx)
		}
	}
	if len(ratees) > 0 {
		cs := s.graph.ClosenessFrom(socialgraph.NodeID(rater), ratees, s.cfg.Closeness)
		for x, idx := range slots {
			out[idx].closeness = cs[x]
		}
	}
	for _, m := range miss {
		if m.need&needSim == 0 {
			continue
		}
		k := pairs[m.idx].PairKey
		if s.cfg.WeightedSimilarity {
			out[m.idx].similar = interest.WeightedSimilarity(s.sets[k.Rater], s.sets[k.Ratee], k.Rater, k.Ratee, s.tracker)
		} else {
			out[m.idx].similar = interest.Similarity(s.sets[k.Rater], s.sets[k.Ratee])
		}
	}
	if s.cfg.FullRecompute {
		return // reference mode: never populate the cache
	}
	ver := s.closeVer[rater]
	for _, m := range miss {
		// Storing a weighted-similarity value is harmless: get() never
		// serves it (the !simStatic branch above recomputes similarity).
		s.sigCache.put(pairs[m.idx].PairKey, ver, out[m.idx])
	}
}

// thresholdsFrom derives T+t and T−t for an interval with total ratings
// spread over n transacting pairs. The paper defines the suspicion cut as
// θ·F where F is "the average rating frequency from one node to another
// node in the system"; we compute F as the mean total rating count over all
// transacting pairs, so no single polarity's attacker can inflate its own
// threshold.
func thresholdsFrom(total, n int) (pos, neg float64) {
	t := theta * meanFrom(total, n)
	return t, t
}

// baseline aggregates the empirical signal distribution over non-suspicious
// pairs (frequency within thresholds), the population the Gaussian centers
// on. The value slices are sorted ascending.
type baseline struct {
	closeness        BaselineStats
	similarity       BaselineStats
	closenessValues  []float64
	similarityValues []float64
}

func (s *SocialTrust) systemBaseline(signals []pairSignals, pairs []rating.PairRun,
	posT, negT float64) baseline {

	// The value slices live in reusable scratch; only capacity persists
	// across calls. The append order is the sorted-pair order regardless of
	// Workers, which the blocked mean below relies on; summarizeBaseline
	// then sorts each slice in place.
	b := baseline{closenessValues: s.closeVals[:0], similarityValues: s.simVals[:0]}
	for i := range pairs {
		if float64(pairs[i].Positive) > posT || float64(pairs[i].Negative) > negT {
			continue // frequency-suspicious pairs must not pollute the baseline
		}
		b.closenessValues = append(b.closenessValues, signals[i].closeness)
		b.similarityValues = append(b.similarityValues, signals[i].similar)
	}
	s.closeVals, s.simVals = b.closenessValues[:0], b.similarityValues[:0]
	b.closeness = s.summarizeBaseline(b.closenessValues)
	b.similarity = s.summarizeBaseline(b.similarityValues)
	return b
}

// summarizeBaseline returns the stats of one signal's baseline population.
// The mean sums xs in pair order; then xs is sorted in place, once, and the
// range and the robust quantiles are read off it.
func (s *SocialTrust) summarizeBaseline(xs []float64) BaselineStats {
	if len(xs) == 0 {
		return BaselineStats{}
	}
	mean := s.blockedMean(xs)
	slices.Sort(xs)
	p05, _ := stats.PercentileSorted(xs, 5)
	p95, _ := stats.PercentileSorted(xs, 95)
	return BaselineStats{Mean: mean, Min: xs[0], Max: xs[len(xs)-1], Lo: p05, Hi: p95, N: len(xs)}
}

// meanBlock is the fixed accumulation granularity of the deterministic
// baseline mean: partial sums are formed over consecutive meanBlock-sized
// runs of the value sequence and reduced in run order, so the float result
// depends only on the sequence — never on Workers. At or below one block
// this is exactly the serial sum (stats.Mean), keeping small-N results
// bit-identical to the pre-parallel code.
const meanBlock = 4096

func (s *SocialTrust) blockedMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	nb := (len(xs) + meanBlock - 1) / meanBlock
	if cap(s.partScratch) < nb {
		s.partScratch = make([]float64, nb)
	}
	parts := s.partScratch[:nb]
	par.ForBlocks(nb, s.cfg.Workers, func(b int) {
		lo := b * meanBlock
		hi := lo + meanBlock
		if hi > len(xs) {
			hi = len(xs)
		}
		sum := 0.0
		for _, v := range xs[lo:hi] {
			sum += v
		}
		parts[b] = sum
	})
	total := 0.0
	for _, p := range parts {
		total += p
	}
	return total / float64(len(xs))
}

// quantiles reads the loQ and hiQ quantiles off sorted, a baseline
// population summarizeBaseline has sorted.
func quantiles(sorted []float64, loQ, hiQ float64) (lo, hi float64) {
	if len(sorted) == 0 {
		return 0, math.Inf(1) // no baseline: nothing counts as "very low/high"
	}
	lo, _ = stats.PercentileSorted(sorted, loQ*100)
	hi, _ = stats.PercentileSorted(sorted, hiQ*100)
	return lo, hi
}

// gaussianWeight evaluates the combined filter of Equation 9:
//
//	w = α · exp(−[(Ωc−Ω̄c)²/(2|maxΩc−minΩc|²) + (Ωs−Ω̄s)²/(2|maxΩs−minΩs|²)])
//
// centered on the interval's system baseline (Ω̄ its mean, the range its
// width). A disabled dimension contributes no term. A degenerate range
// (max == min) keeps the weight at α when the value sits on the center and
// collapses it to ~0 otherwise.
func (s *SocialTrust) gaussianWeight(sig pairSignals, base baseline) float64 {
	closeSt, simSt := s.gaussianBases(base)
	return alpha * math.Exp(-(deviation(sig.closeness, closeSt) + deviation(sig.similar, simSt)))
}

// gaussianBases returns the baseline stats the Gaussian centers each
// dimension on — the evidence the flight recorder attaches to each
// FilterDecision. A disabled dimension returns zero-value stats (N == 0),
// whose deviation term is 0.
func (s *SocialTrust) gaussianBases(base baseline) (closeSt, simSt BaselineStats) {
	if s.cfg.UseCloseness {
		closeSt = base.closeness
	}
	if s.cfg.UseSimilarity {
		simSt = base.similarity
	}
	return closeSt, simSt
}

// freqScale returns the frequency-normalization factor min(1, F/t) for the
// polarity (or polarities) that triggered detection, F being the mean
// per-pair rating frequency of the interval.
func freqScale(c rating.PairCounts, behaviors Behavior, meanF float64) float64 {
	scale := 1.0
	if behaviors&(B1|B2|B3) != 0 && float64(c.Positive) > meanF {
		scale = meanF / float64(c.Positive)
	}
	if behaviors&B4 != 0 && float64(c.Negative) > meanF {
		if s := meanF / float64(c.Negative); s < scale {
			scale = s
		}
	}
	return scale
}

// meanFrom computes F, the mean total rating count per transacting pair in
// the interval — total ratings over n pairs — floored at 1.
func meanFrom(total, n int) float64 {
	if n == 0 {
		return 1
	}
	f := float64(total) / float64(n)
	if f < 1 {
		f = 1
	}
	return f
}

// deviation is one exponent term of Equation 9 with a guarded denominator.
func deviation(x float64, st BaselineStats) float64 {
	if st.N == 0 {
		return 0
	}
	d := x - st.Mean
	rng := st.width()
	if rng < 1e-12 {
		if math.Abs(d) < 1e-12 {
			return 0
		}
		return 50 // effectively zero weight
	}
	exp := (d * d) / (2 * rng * rng)
	if exp > 50 {
		exp = 50
	}
	return exp
}
