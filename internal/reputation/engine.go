// Package reputation defines the pluggable reputation-engine abstraction the
// simulator and SocialTrust build on, plus helpers shared by the concrete
// engines (EigenTrust, eBay).
//
// An Engine consumes the drained rating snapshot of each reputation-update
// interval (one simulation cycle in the paper's evaluation) and maintains a
// normalized global reputation vector: Reputations() sums to 1, matching the
// paper's Ri/ΣRk scaling, so engine outputs are directly comparable.
package reputation

import "socialtrust/internal/rating"

// Engine is a reputation system: it folds interval snapshots into internal
// state and exposes normalized global reputation values. Engines are not
// safe for concurrent mutation; the simulator calls Update from its
// single-threaded end-of-cycle phase.
type Engine interface {
	// Name identifies the engine in experiment output ("EigenTrust", "eBay").
	Name() string
	// Update folds one interval snapshot into the engine state and
	// recomputes global reputations. Rating values may have been re-weighted
	// by a collusion filter before reaching the engine. Update takes the
	// snapshot: an engine may rewrite its ratings in place (the SocialTrust
	// filter does), so callers hand each drained snapshot to one Update and
	// do not reuse it.
	Update(snap rating.Snapshot)
	// Reputations returns the normalized global reputation vector. The
	// returned slice is owned by the caller (a fresh copy every call).
	Reputations() []float64
	// Reputation returns the normalized reputation of a single node.
	Reputation(node int) float64
	// Reset restores the engine to its initial (all-zero reputation) state.
	Reset()
	// ResetNode forgets everything about one node — the ratings it issued
	// and the ratings it received — as when a peer departs and a newcomer
	// takes over its ID slot. Supporting this is what lets the testbed
	// model churn and the whitewashing attack.
	ResetNode(node int)
}

// NormalizeScores maps raw accumulated scores to the paper's normalized
// reputation Ri/ΣRk, clamping negative raw scores to zero first (a node
// with net-negative feedback has zero normalized reputation, not negative).
// A network with no positive score anywhere yields the all-zero vector:
// unlike a uniform fallback, this keeps "nobody has earned trust yet"
// distinguishable from "everyone is equally trusted".
func NormalizeScores(raw []float64) []float64 {
	out := make([]float64, len(raw))
	sum := 0.0
	for _, v := range raw {
		if v > 0 {
			sum += v
		}
	}
	if sum == 0 {
		return out
	}
	for i, v := range raw {
		if v > 0 {
			out[i] = v / sum
		}
	}
	return out
}
