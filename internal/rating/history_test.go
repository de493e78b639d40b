package rating

import (
	"bytes"
	"encoding/gob"
	"slices"
	"sort"
	"testing"
)

// mapHistory is History as it was before it kept only rated-peer sets: four
// maps written for every rating, with versions bumped on the first rating
// of a pair. It stays here as the reference for RateesOf and Version.
type mapHistory struct {
	sums   map[PairKey]float64
	counts map[PairKey]int
	raters map[int]map[int]bool
	ratees map[int]map[int]bool
	vers   []uint64
}

func newMapHistory(numNodes int) *mapHistory {
	return &mapHistory{
		sums:   make(map[PairKey]float64),
		counts: make(map[PairKey]int),
		raters: make(map[int]map[int]bool),
		ratees: make(map[int]map[int]bool),
		vers:   make([]uint64, numNodes),
	}
}

func (h *mapHistory) Absorb(ratings []Rating) {
	for _, r := range ratings {
		k := PairKey{r.Rater, r.Ratee}
		h.sums[k] += r.Value
		h.counts[k]++
		if h.raters[r.Ratee] == nil {
			h.raters[r.Ratee] = make(map[int]bool)
		}
		h.raters[r.Ratee][r.Rater] = true
		if h.ratees[r.Rater] == nil {
			h.ratees[r.Rater] = make(map[int]bool)
		}
		if !h.ratees[r.Rater][r.Ratee] {
			h.ratees[r.Rater][r.Ratee] = true
			h.vers[r.Rater]++
		}
	}
}

func (h *mapHistory) ResetNode(node int) {
	for k := range h.sums {
		if k.Rater == node || k.Ratee == node {
			delete(h.sums, k)
			delete(h.counts, k)
		}
	}
	delete(h.raters, node)
	if len(h.ratees[node]) > 0 {
		h.vers[node]++
	}
	delete(h.ratees, node)
	for _, m := range h.raters {
		delete(m, node)
	}
	for rater, m := range h.ratees {
		if m[node] {
			delete(m, node)
			h.vers[rater]++
		}
	}
}

func (h *mapHistory) RateesOf(rater int) []int { return sortedSet(h.ratees[rater]) }

func sortedSet(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// parentHistoryState is the HistoryState shape snapshots carried before
// History dropped its per-pair aggregates.
type parentHistoryState struct {
	NumNodes int
	Sums     map[PairKey]float64
	Counts   map[PairKey]int
	Raters   map[int][]int
	Ratees   map[int][]int
	Vers     []uint64
}

func (h *mapHistory) exportState() parentHistoryState {
	st := parentHistoryState{
		NumNodes: len(h.vers),
		Sums:     make(map[PairKey]float64),
		Counts:   make(map[PairKey]int),
		Raters:   make(map[int][]int),
		Ratees:   make(map[int][]int),
		Vers:     slices.Clone(h.vers),
	}
	for k, v := range h.sums {
		st.Sums[k] = v
		st.Counts[k] = h.counts[k]
	}
	for n, set := range h.raters {
		if len(set) > 0 {
			st.Raters[n] = sortedSet(set)
		}
	}
	for n, set := range h.ratees {
		if len(set) > 0 {
			st.Ratees[n] = sortedSet(set)
		}
	}
	return st
}

// historyNodes is the node range the history fuzz draws IDs from.
const historyNodes = 6

// historyStep is one History operation: ResetNode(reset) when reset is not
// negative, Absorb(ratings) otherwise.
type historyStep struct {
	reset   int
	ratings []Rating
}

// historySteps decodes fuzz bytes into a sequence of History operations. An
// op byte with both high bits set resets node op%historyNodes. Any other op
// byte starts an interval of op&0x1f ratings, one byte each naming a
// (rater, ratee) pair (self pairs are dropped, as the ledger drops them);
// bit 5 puts the interval in snapshot order, otherwise it keeps input order.
func historySteps(data []byte) (steps []historyStep) {
	for len(data) > 0 {
		op := data[0]
		data = data[1:]
		if op&0xc0 == 0xc0 {
			steps = append(steps, historyStep{reset: int(op) % historyNodes})
			continue
		}
		k := min(int(op&0x1f), len(data))
		var rs []Rating
		for _, b := range data[:k] {
			p := int(b) % (historyNodes * historyNodes)
			if r := (Rating{Rater: p / historyNodes, Ratee: p % historyNodes, Value: 1}); r.Rater != r.Ratee {
				rs = append(rs, r)
			}
		}
		data = data[k:]
		if op&0x20 != 0 {
			rs = SnapshotOrder(rs)
		}
		steps = append(steps, historyStep{reset: -1, ratings: rs})
	}
	return steps
}

// FuzzHistory pins History to the four-map reference: after every Absorb
// (in snapshot or input order) and every ResetNode, each node's RateesOf and
// Version agree, and the exported state round-trips.
func FuzzHistory(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x24, 1, 1, 1, 7})              // a run of one pair, then another pair
	f.Add([]byte{0x05, 13, 1, 13, 2, 1, 0xc1})   // shuffled pairs, then reset node 1
	f.Add([]byte{0x23, 8, 9, 10, 0xc4, 0x21, 9}) // reset an unrated node, re-rate
	f.Add(orderSeed(200, 36)[1:])                // long mixed intervals with resets
	f.Fuzz(func(t *testing.T, data []byte) {
		h, ref := NewHistory(historyNodes), newMapHistory(historyNodes)
		for s, step := range historySteps(data) {
			if step.reset >= 0 {
				h.ResetNode(step.reset)
				ref.ResetNode(step.reset)
			} else {
				h.Absorb(step.ratings)
				ref.Absorb(step.ratings)
			}
			for node := 0; node < historyNodes; node++ {
				if got, want := h.RateesOf(node), ref.RateesOf(node); !slices.Equal(got, want) {
					t.Fatalf("step %d: RateesOf(%d) = %v, want %v", s, node, got, want)
				}
				if got, want := h.Version(node), ref.vers[node]; got != want {
					t.Fatalf("step %d: Version(%d) = %d, want %d", s, node, got, want)
				}
			}
		}
		st := h.ExportState()
		back := NewHistory(historyNodes)
		back.ImportState(st)
		for node := 0; node < historyNodes; node++ {
			if !slices.Equal(back.RateesOf(node), h.RateesOf(node)) || back.Version(node) != h.Version(node) {
				t.Fatalf("node %d did not round-trip through ExportState", node)
			}
		}
	})
}

// TestHistoryStateDecodesParentFormat pins resuming an older state dir: a
// snapshot written while HistoryState still carried Sums, Counts and Raters
// decodes into today's HistoryState, validates, and imports to the same
// rated-peer sets and versions.
func TestHistoryStateDecodesParentFormat(t *testing.T) {
	const n = 50
	ref := newMapHistory(n)
	for i := 0; i < 400; i++ {
		r := Rating{Rater: (i * 7) % n, Ratee: (i*13 + 1) % n, Value: float64(i%3) - 1}
		if r.Rater != r.Ratee {
			ref.Absorb([]Rating{r})
		}
	}
	ref.ResetNode(8)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ref.exportState()); err != nil {
		t.Fatal(err)
	}
	var st HistoryState
	if err := gob.NewDecoder(&buf).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if err := st.Validate(n); err != nil {
		t.Fatal(err)
	}
	h := NewHistory(n)
	h.ImportState(st)
	for node := 0; node < n; node++ {
		if got, want := h.RateesOf(node), ref.RateesOf(node); !slices.Equal(got, want) {
			t.Fatalf("RateesOf(%d) = %v, want %v", node, got, want)
		}
		if h.Version(node) != ref.vers[node] {
			t.Fatalf("Version(%d) = %d, want %d", node, h.Version(node), ref.vers[node])
		}
	}
}

// TestHistoryStateValidate has one case per rule a state read from a file
// must meet before ImportState indexes rows by its IDs.
func TestHistoryStateValidate(t *testing.T) {
	const n = 4
	valid := func() HistoryState {
		return HistoryState{NumNodes: n, Ratees: map[int][]int{0: {1, 3}, 2: {0}}, Vers: make([]uint64, n)}
	}
	cases := []struct {
		name   string
		mutate func(*HistoryState)
	}{
		{"valid", func(*HistoryState) {}},
		{"node count", func(st *HistoryState) { st.NumNodes = n + 1 }},
		{"version count", func(st *HistoryState) { st.Vers = st.Vers[:n-1] }},
		{"rater below range", func(st *HistoryState) { st.Ratees[-1] = []int{0} }},
		{"rater above range", func(st *HistoryState) { st.Ratees[n] = []int{0} }},
		{"ratee below range", func(st *HistoryState) { st.Ratees[1] = []int{-1} }},
		{"ratee above range", func(st *HistoryState) { st.Ratees[1] = []int{n} }},
		{"self pair", func(st *HistoryState) { st.Ratees[1] = []int{0, 1} }},
		{"not ascending", func(st *HistoryState) { st.Ratees[1] = []int{3, 2} }},
		{"duplicate ratee", func(st *HistoryState) { st.Ratees[1] = []int{2, 2} }},
	}
	for _, c := range cases {
		st := valid()
		c.mutate(&st)
		err := st.Validate(n)
		if (err == nil) != (c.name == "valid") {
			t.Errorf("%s: Validate = %v", c.name, err)
		}
	}
}
