// Package trustguard implements a TrustGuard-style reputation engine
// (Srivatsa, Xiong, Liu, WWW 2005) — the paper's reference [12] and its
// closest prior-art collusion defense. Two of TrustGuard's safeguards are
// reproduced:
//
//  1. Credibility-weighted feedback (the PSM safeguard): a rater's feedback
//     is weighted by how well its per-ratee opinions agree with the
//     population's. Colluders who praise partners the rest of the network
//     rates poorly ("give good ratings within the clique and bad ratings to
//     everyone else") earn low credibility and lose their voice.
//  2. The PID-style temporal value (the TVM safeguard): reported trust
//     blends the current interval's value with the historical average and
//     penalizes fluctuation, so reputations built up in a burst (or
//     oscillating good/bad behavior) are discounted.
//
// The engine plugs into the same reputation.Engine interface as EigenTrust
// and eBay, so SocialTrust can wrap it and the simulator can run it as a
// baseline.
package trustguard

import (
	"fmt"
	"math"
	"sort"

	"socialtrust/internal/rating"
	"socialtrust/internal/reputation"
)

// Config parameterizes the engine. Alpha/Beta/Gamma are the TVM blend:
// reported = Alpha·current + Beta·history − Gamma·|current − history|.
type Config struct {
	NumNodes int
	Alpha    float64 // weight of the current interval (default 0.5)
	Beta     float64 // weight of the historical average (default 0.5)
	Gamma    float64 // fluctuation penalty (default 0.5)
	// MinCredibility floors rater credibility so a lone dissenting honest
	// rater is dampened, not silenced (default 0.05).
	MinCredibility float64
}

func (c Config) withDefaults() Config {
	if c.Alpha == 0 {
		c.Alpha = 0.5
	}
	if c.Beta == 0 {
		c.Beta = 0.5
	}
	if c.Gamma == 0 {
		c.Gamma = 0.5
	}
	if c.MinCredibility == 0 {
		c.MinCredibility = 0.05
	}
	return c
}

// Engine is a TrustGuard-style reputation engine. Not safe for concurrent
// mutation.
type Engine struct {
	cfg Config

	// opinions holds each rater's all-time mean rating of each ratee.
	opinions map[rating.PairKey]*opinion
	// histSum/histN accumulate per-node historical current-values for the
	// TVM blend.
	histSum []float64
	histN   []int
	rep     []float64
}

type opinion struct {
	sum float64
	n   int
}

func (o *opinion) mean() float64 { return o.sum / float64(o.n) }

// New creates a TrustGuard engine.
func New(cfg Config) *Engine {
	if cfg.NumNodes <= 0 {
		panic("trustguard: NumNodes must be positive")
	}
	e := &Engine{cfg: cfg.withDefaults()}
	e.Reset()
	return e
}

var _ reputation.Engine = (*Engine)(nil)

// Name implements reputation.Engine.
func (e *Engine) Name() string { return "TrustGuard" }

// Reset implements reputation.Engine.
func (e *Engine) Reset() {
	e.opinions = make(map[rating.PairKey]*opinion)
	e.histSum = make([]float64, e.cfg.NumNodes)
	e.histN = make([]int, e.cfg.NumNodes)
	e.rep = make([]float64, e.cfg.NumNodes)
}

// ResetNode implements reputation.Engine: the node's opinions (issued and
// received) and its temporal history are forgotten.
func (e *Engine) ResetNode(node int) {
	if node < 0 || node >= e.cfg.NumNodes {
		panic(fmt.Sprintf("trustguard: node %d out of range", node))
	}
	for k := range e.opinions {
		if k.Rater == node || k.Ratee == node {
			delete(e.opinions, k)
		}
	}
	e.histSum[node] = 0
	e.histN[node] = 0
	e.rep[node] = 0
}

// Update implements reputation.Engine.
func (e *Engine) Update(snap rating.Snapshot) {
	// Fold the interval into all-time per-pair opinions.
	for _, r := range snap.Ratings {
		k := rating.PairKey{Rater: r.Rater, Ratee: r.Ratee}
		op := e.opinions[k]
		if op == nil {
			op = &opinion{}
			e.opinions[k] = op
		}
		op.sum += r.Value
		op.n++
	}
	// Population consensus per ratee: the unweighted mean of rater
	// opinions, plus the per-rater opinion lists, in deterministic order.
	byRatee := make(map[int][]int) // ratee -> sorted raters
	byRater := make(map[int][]int) // rater -> sorted ratees
	for k := range e.opinions {
		byRatee[k.Ratee] = append(byRatee[k.Ratee], k.Rater)
		byRater[k.Rater] = append(byRater[k.Rater], k.Ratee)
	}
	for _, v := range byRatee {
		sort.Ints(v)
	}
	for _, v := range byRater {
		sort.Ints(v)
	}
	consensus := make(map[int]float64, len(byRatee))
	for ratee, raters := range byRatee {
		sum := 0.0
		for _, r := range raters {
			sum += e.opinions[rating.PairKey{Rater: r, Ratee: ratee}].mean()
		}
		consensus[ratee] = sum / float64(len(raters))
	}
	// Credibility per rater, computed once: 1 − RMS deviation of its
	// opinions from consensus, scaled by the opinion range (means lie in
	// [−1,1] for unit ratings, so deviation is normalized by 2).
	cred := make([]float64, e.cfg.NumNodes)
	for rater, ratees := range byRater {
		sum := 0.0
		for _, j := range ratees {
			d := e.opinions[rating.PairKey{Rater: rater, Ratee: j}].mean() - consensus[j]
			sum += (d / 2) * (d / 2)
		}
		c := 1 - math.Sqrt(sum/float64(len(ratees)))
		if c < e.cfg.MinCredibility {
			c = e.cfg.MinCredibility
		}
		cred[rater] = c
	}
	// Current-interval value: credibility-weighted mean opinion.
	raw := make([]float64, e.cfg.NumNodes)
	for ratee := 0; ratee < e.cfg.NumNodes; ratee++ {
		raters := byRatee[ratee]
		if len(raters) == 0 {
			continue
		}
		var num, den float64
		for _, r := range raters {
			num += cred[r] * e.opinions[rating.PairKey{Rater: r, Ratee: ratee}].mean()
			den += cred[r]
		}
		if den > 0 {
			raw[ratee] = num / den
		}
	}
	// TVM blend with history, then normalize.
	blended := make([]float64, e.cfg.NumNodes)
	for j := range blended {
		cur := raw[j]
		hist := cur
		if e.histN[j] > 0 {
			hist = e.histSum[j] / float64(e.histN[j])
		}
		v := e.cfg.Alpha*cur + e.cfg.Beta*hist - e.cfg.Gamma*math.Abs(cur-hist)
		if v < 0 {
			v = 0
		}
		blended[j] = v
		e.histSum[j] += cur
		e.histN[j]++
	}
	e.rep = reputation.NormalizeScores(blended)
}

// Reputations implements reputation.Engine.
func (e *Engine) Reputations() []float64 {
	return append([]float64(nil), e.rep...)
}

// Reputation implements reputation.Engine.
func (e *Engine) Reputation(node int) float64 {
	if node < 0 || node >= e.cfg.NumNodes {
		panic(fmt.Sprintf("trustguard: node %d out of range", node))
	}
	return e.rep[node]
}

// OpinionState is one rater's all-time aggregate about one ratee, the
// serializable form of the internal opinion record.
type OpinionState struct {
	Key rating.PairKey
	Sum float64
	N   int
}

// State is the engine's complete persistent state.
type State struct {
	Opinions []OpinionState // sorted by (Rater, Ratee) for a canonical payload
	HistSum  []float64
	HistN    []int
	Rep      []float64
}

// ExportState deep-copies the engine state for snapshotting.
func (e *Engine) ExportState() State {
	st := State{
		Opinions: make([]OpinionState, 0, len(e.opinions)),
		HistSum:  append([]float64(nil), e.histSum...),
		HistN:    append([]int(nil), e.histN...),
		Rep:      append([]float64(nil), e.rep...),
	}
	for k, op := range e.opinions {
		st.Opinions = append(st.Opinions, OpinionState{Key: k, Sum: op.sum, N: op.n})
	}
	sort.Slice(st.Opinions, func(a, b int) bool {
		if st.Opinions[a].Key.Rater != st.Opinions[b].Key.Rater {
			return st.Opinions[a].Key.Rater < st.Opinions[b].Key.Rater
		}
		return st.Opinions[a].Key.Ratee < st.Opinions[b].Key.Ratee
	})
	return st
}

// Validate reports whether the state fits a numNodes-node engine: one
// history sum, history count and reputation per node, and opinions only
// between its nodes. A state read from a file must pass it before
// ImportState.
func (st State) Validate(numNodes int) error {
	if len(st.HistSum) != numNodes || len(st.HistN) != numNodes || len(st.Rep) != numNodes {
		return fmt.Errorf("trustguard: state with %d/%d/%d history sums/counts/reputations, want %d",
			len(st.HistSum), len(st.HistN), len(st.Rep), numNodes)
	}
	for _, o := range st.Opinions {
		if k := o.Key; k.Rater < 0 || k.Rater >= numNodes || k.Ratee < 0 || k.Ratee >= numNodes {
			return fmt.Errorf("trustguard: state opinion %d->%d outside [0, %d)", k.Rater, k.Ratee, numNodes)
		}
	}
	return nil
}

// ImportState restores a previously exported state, which must pass
// Validate, bit-exactly.
func (e *Engine) ImportState(st State) {
	if err := st.Validate(e.cfg.NumNodes); err != nil {
		panic(err)
	}
	e.opinions = make(map[rating.PairKey]*opinion, len(st.Opinions))
	for _, o := range st.Opinions {
		e.opinions[o.Key] = &opinion{sum: o.Sum, n: o.N}
	}
	e.histSum = append(e.histSum[:0], st.HistSum...)
	e.histN = append(e.histN[:0], st.HistN...)
	e.rep = append(e.rep[:0], st.Rep...)
}
