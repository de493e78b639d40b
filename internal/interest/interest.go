// Package interest implements the interest model of the paper: per-node
// interest sets V = <v1,...,vk>, the interest-similarity coefficient Ωs
// (Equation 1/7), and the request-weighted, falsification-resistant variant
// (Equation 11) that weighs each shared interest by how often each node
// actually requests resources in it.
package interest

import (
	"fmt"
	"sort"
	"sync"
)

// Category identifies a product/resource interest category (e.g.
// "Electronics", "Computers", "Clothing" in the Overstock trace). Categories
// are dense indices so per-node weights can live in slices.
type Category int

// Set is a node's interest set V. The zero value is an empty set.
type Set struct {
	members map[Category]bool
}

// NewSet builds an interest set from the given categories (duplicates are
// collapsed).
func NewSet(cats ...Category) Set {
	s := Set{members: make(map[Category]bool, len(cats))}
	for _, c := range cats {
		s.members[c] = true
	}
	return s
}

// Add inserts a category into the set.
func (s *Set) Add(c Category) {
	if s.members == nil {
		s.members = make(map[Category]bool)
	}
	s.members[c] = true
}

// Remove deletes a category from the set.
func (s *Set) Remove(c Category) { delete(s.members, c) }

// Contains reports whether c is in the set.
func (s Set) Contains(c Category) bool { return s.members[c] }

// Len returns |V|.
func (s Set) Len() int { return len(s.members) }

// Categories returns the members in ascending order.
func (s Set) Categories() []Category {
	out := make([]Category, 0, len(s.members))
	for c := range s.members {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Intersect returns V_i ∩ V_j in ascending order.
func (s Set) Intersect(o Set) []Category {
	small, large := s.members, o.members
	if len(large) < len(small) {
		small, large = large, small
	}
	var out []Category
	for c := range small {
		if large[c] {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Similarity computes Ωs(i,j) = |V_i ∩ V_j| / min(|V_i|,|V_j|)
// (Equation 1/7). It is symmetric and lies in [0,1]; two nodes with an empty
// interest set have similarity 0.
func Similarity(a, b Set) float64 {
	if a.Len() == 0 || b.Len() == 0 {
		return 0
	}
	inter := 0
	small, large := a.members, b.members
	if len(large) < len(small) {
		small, large = large, small
	}
	for c := range small {
		if large[c] {
			inter++
		}
	}
	minLen := a.Len()
	if b.Len() < minLen {
		minLen = b.Len()
	}
	return float64(inter) / float64(minLen)
}

// Tracker records per-node resource requests by category, deriving the
// request-share weights ws(i,l) of Equation 11: the fraction of node i's
// requests that fall in category l. Safe for concurrent use (one striped
// lock per node row).
type Tracker struct {
	rows []trackerRow
}

type trackerRow struct {
	mu     sync.Mutex
	counts map[Category]float64
	total  float64
}

// NewTracker creates a request tracker for n nodes.
func NewTracker(n int) *Tracker {
	if n < 0 {
		panic("interest: negative node count")
	}
	return &Tracker{rows: make([]trackerRow, n)}
}

// NumNodes reports the tracked population size.
func (t *Tracker) NumNodes() int { return len(t.rows) }

func (t *Tracker) row(i int) *trackerRow {
	if i < 0 || i >= len(t.rows) {
		panic(fmt.Sprintf("interest: node %d out of range [0,%d)", i, len(t.rows)))
	}
	return &t.rows[i]
}

// Record notes one resource request by node i in category c.
func (t *Tracker) Record(i int, c Category) {
	r := t.row(i)
	r.mu.Lock()
	if r.counts == nil {
		r.counts = make(map[Category]float64)
	}
	r.counts[c]++
	r.total++
	r.mu.Unlock()
}

// Weight returns ws(i,l), the share of node i's requests in category c, or 0
// if i has made no requests.
func (t *Tracker) Weight(i int, c Category) float64 {
	r := t.row(i)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.total == 0 {
		return 0
	}
	return r.counts[c] / r.total
}

// Requests returns the total number of requests recorded for node i.
func (t *Tracker) Requests(i int) float64 {
	r := t.row(i)
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// ResetNode clears one node's recorded requests (a departed identity).
func (t *Tracker) ResetNode(i int) {
	r := t.row(i)
	r.mu.Lock()
	r.counts, r.total = nil, 0
	r.mu.Unlock()
}

// Reset clears all recorded requests.
func (t *Tracker) Reset() {
	for i := range t.rows {
		r := &t.rows[i]
		r.mu.Lock()
		r.counts, r.total = nil, 0
		r.mu.Unlock()
	}
}

// WeightedSimilarity computes the falsification-resistant interest
// similarity of Equation 11:
//
//	Ωs(i,j) = Σ_{l ∈ V_i∩V_j} ws(i,l)·ws(j,l) / min(|V_i|,|V_j|)
//
// A colluder that pads its profile with interests it never requests gains
// nothing, because ws is derived from observed requests, not the profile.
// When neither node has recorded any request the profile-only Similarity is
// returned, so a cold-start network degrades gracefully to Equation 7.
func WeightedSimilarity(a, b Set, i, j int, t *Tracker) float64 {
	if a.Len() == 0 || b.Len() == 0 {
		return 0
	}
	if t == nil || (t.Requests(i) == 0 && t.Requests(j) == 0) {
		return Similarity(a, b)
	}
	minLen := a.Len()
	if b.Len() < minLen {
		minLen = b.Len()
	}
	sum := 0.0
	for _, c := range a.Intersect(b) {
		sum += t.Weight(i, c) * t.Weight(j, c)
	}
	return sum / float64(minLen)
}
