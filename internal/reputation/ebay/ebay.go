// Package ebay implements the eBay-style reputation baseline of the paper's
// evaluation.
//
// eBay's defining property against rating-frequency attacks is per-interval
// deduplication: "no matter how frequently a node rates the other node in a
// simulation cycle, eBay only counts all the ratings as one rating". Each
// (rater, ratee) pair contributes at most one unit of feedback per interval:
// the sign of the rater's net feedback ("whether the node offers more
// authentic files than inauthentic files in each simulation cycle"), scaled
// by the mean rating magnitude so that values shrunk by a collusion filter
// contribute only their shrunk weight instead of rounding back up to a full
// ±1. Scores accumulate across intervals and are normalized to Ri/ΣRk as in
// the paper.
package ebay

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"socialtrust/internal/rating"
	"socialtrust/internal/reputation"
)

// Engine is an eBay-style accumulator. Not safe for concurrent mutation.
type Engine struct {
	numNodes int
	scores   []float64
}

// New creates an eBay engine for numNodes peers.
func New(numNodes int) *Engine {
	if numNodes <= 0 {
		panic("ebay: NumNodes must be positive")
	}
	return &Engine{numNodes: numNodes, scores: make([]float64, numNodes)}
}

// Name implements reputation.Engine.
func (e *Engine) Name() string { return "eBay" }

// Reset implements reputation.Engine.
func (e *Engine) Reset() { e.scores = make([]float64, e.numNodes) }

// ResetNode implements reputation.Engine: the node's accumulated feedback
// score is forgotten. (eBay keys nothing on the rater side across
// intervals, so there is no issued-rating state to clear.)
func (e *Engine) ResetNode(node int) {
	if node < 0 || node >= e.numNodes {
		panic(fmt.Sprintf("ebay: node %d out of range", node))
	}
	e.scores[node] = 0
}

// Update folds one interval: each (rater, ratee) pair contributes the mean
// of its rating values this interval, clamped to [−1, +1]. The pairs are the
// snapshot's runs, so contributions land in (ratee, rater) order and each
// pair's values are summed in input order: the float accumulation is
// deterministic.
func (e *Engine) Update(snap rating.Snapshot) {
	rs := snap.Ratings
	runs := rating.PairRuns(rs, nil)
	if !rating.RunsIncrease(runs) {
		// A snapshot built by hand may split a pair or list pairs out of
		// order; a stable sort of a copy by (ratee, rater) joins each pair's
		// ratings and keeps them in input order.
		rs = slices.Clone(rs)
		slices.SortStableFunc(rs, func(x, y rating.Rating) int {
			if c := cmp.Compare(x.Ratee, y.Ratee); c != 0 {
				return c
			}
			return cmp.Compare(x.Rater, y.Rater)
		})
		runs = rating.PairRuns(rs, runs[:0])
	}
	for _, run := range runs {
		var sum, absSum float64
		for i := run.Lo; i < run.Hi; i++ {
			sum += rs[i].Value
			absSum += math.Abs(rs[i].Value)
		}
		e.scores[run.Ratee] += contribution(sum, absSum, run.Hi-run.Lo)
	}
}

// Reputations implements reputation.Engine.
func (e *Engine) Reputations() []float64 {
	return reputation.NormalizeScores(e.scores)
}

// Reputation implements reputation.Engine.
func (e *Engine) Reputation(node int) float64 {
	if node < 0 || node >= e.numNodes {
		panic(fmt.Sprintf("ebay: node %d out of range", node))
	}
	return e.Reputations()[node]
}

// RawScore exposes the unnormalized accumulated feedback score.
func (e *Engine) RawScore(node int) float64 { return e.scores[node] }

// State is the engine's complete persistent state: the accumulated raw
// feedback scores.
type State struct {
	Scores []float64
}

// ExportState deep-copies the engine state for snapshotting.
func (e *Engine) ExportState() State {
	return State{Scores: append([]float64(nil), e.scores...)}
}

// Validate reports whether the state fits a numNodes-node engine: one score
// per node. A state read from a file must pass it before ImportState.
func (st State) Validate(numNodes int) error {
	if len(st.Scores) != numNodes {
		return fmt.Errorf("ebay: state with %d scores, want %d", len(st.Scores), numNodes)
	}
	return nil
}

// ImportState restores a previously exported state, which must pass
// Validate, bit-exactly.
func (e *Engine) ImportState(st State) {
	if err := st.Validate(e.numNodes); err != nil {
		panic(err)
	}
	e.scores = append(e.scores[:0], st.Scores...)
}

// contribution is one rater's deduplicated feedback for the interval:
// the sign of the rater's net feedback, scaled by the mean rating magnitude
// capped at 1. For raw ±1 ratings this is the pure eBay weekly sign (+1 when
// the ratee served the rater more authentic than inauthentic content);
// ratings shrunk by a collusion filter contribute only their shrunk
// magnitude, so down-weighted spam cannot round back up to a full +1.
func contribution(sum, absSum float64, n int) float64 {
	if n == 0 || sum == 0 {
		return 0
	}
	mag := absSum / float64(n)
	if mag > 1 {
		mag = 1
	}
	if sum < 0 {
		return -mag
	}
	return mag
}
