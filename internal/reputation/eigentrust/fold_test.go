package eigentrust

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"socialtrust/internal/rating"
)

// mapFold is the engine's local-trust bookkeeping as it was before the
// per-rater rows: a sums map and a positive-outlink map updated one rating
// at a time, with the CSR dirty flags each rating sets. It stays here as the
// reference for the row fold.
type mapFold struct {
	sums       map[rating.PairKey]float64
	out        map[int]map[int]float64
	shapeDirty bool
	valsDirty  bool
	dirtyRows  []int
	rowDirty   map[int]bool
}

// newMapFold starts as Reset leaves an engine: empty, with the shape dirty.
func newMapFold() *mapFold {
	return &mapFold{sums: map[rating.PairKey]float64{}, out: map[int]map[int]float64{}, shapeDirty: true, rowDirty: map[int]bool{}}
}

func (m *mapFold) update(rs []rating.Rating) {
	for _, r := range rs {
		k := rating.PairKey{Rater: r.Rater, Ratee: r.Ratee}
		old := m.sums[k]
		m.sums[k] = old + r.Value
		m.applyLocal(k, old, m.sums[k])
	}
}

func (m *mapFold) resetNode(node int) {
	var keys []rating.PairKey
	for k := range m.sums {
		if k.Rater == node || k.Ratee == node {
			keys = append(keys, k)
		}
	}
	for _, k := range keys {
		old := m.sums[k]
		delete(m.sums, k)
		m.applyLocal(k, old, 0)
	}
}

func (m *mapFold) applyLocal(k rating.PairKey, old, now float64) {
	if old == now {
		return
	}
	oldPos, nowPos := old > 0, now > 0
	switch {
	case nowPos && !oldPos:
		row := m.out[k.Rater]
		if row == nil {
			row = make(map[int]float64)
			m.out[k.Rater] = row
		}
		row[k.Ratee] = now
		m.shapeDirty = true
	case nowPos:
		m.out[k.Rater][k.Ratee] = now
		m.valsDirty = true
		if !m.rowDirty[k.Rater] {
			m.rowDirty[k.Rater] = true
			m.dirtyRows = append(m.dirtyRows, k.Rater)
		}
	case oldPos && !nowPos:
		delete(m.out[k.Rater], k.Ratee)
		if len(m.out[k.Rater]) == 0 {
			delete(m.out, k.Rater)
		}
		m.shapeDirty = true
	}
}

// iterate applies the engine's recompute contract to the reference: skip
// when nothing changed and the last vector converged, else run the pre-CSR
// iteration from t. It clears the dirty flags and returns the new vector and
// Stats.
func (m *mapFold) iterate(cfg Config, p, t []float64, prev Stats) ([]float64, Stats) {
	changed := m.shapeDirty || m.valsDirty
	m.shapeDirty, m.valsDirty, m.dirtyRows = false, false, nil
	clear(m.rowDirty)
	if !changed && prev.Updates > 0 && prev.Converged {
		return t, Stats{Converged: true, Residual: prev.Residual, Updates: prev.Updates + 1, Skipped: true}
	}
	next, iters, residual := iterateOutlinks(cfg, p, m.out, t)
	return next, Stats{Iterations: iters, Residual: residual, Converged: residual < cfg.Epsilon, Updates: prev.Updates + 1}
}

// foldNodes is the node range the engine fold fuzz draws IDs from; it stays
// within one etBlock, where the engine's sums are the reference's serial ones.
const foldNodes = 6

// foldValues are the rating values the fold fuzz draws from: the paper's ±1,
// both zeros, and the fractions the Gaussian filter's shrinking produces.
var foldValues = []float64{1, -1, 0, math.Copysign(0, -1), 0.5, -0.5, 0.25, 1.0 / 3, -0.1, 2}

// foldStep is one engine operation: ResetNode(reset) when reset is not
// negative, Update(ratings) otherwise.
type foldStep struct {
	reset   int
	ratings []rating.Rating
}

// foldSteps decodes fuzz bytes into engine operations. An op byte with both
// high bits set resets node op%foldNodes. Any other op byte starts an
// interval of op&0x1f ratings, two bytes each: a (rater, ratee) pair and an
// index into foldValues; self pairs are dropped, as the ledger drops them.
// Bit 5 puts the interval in snapshot order, otherwise it keeps input order.
func foldSteps(data []byte) (steps []foldStep) {
	for len(data) > 0 {
		op := data[0]
		data = data[1:]
		if op&0xc0 == 0xc0 {
			steps = append(steps, foldStep{reset: int(op) % foldNodes})
			continue
		}
		k := min(int(op&0x1f), len(data)/2)
		var rs []rating.Rating
		for i := 0; i < k; i++ {
			p := int(data[2*i]) % (foldNodes * foldNodes)
			r := rating.Rating{Rater: p / foldNodes, Ratee: p % foldNodes, Value: foldValues[int(data[2*i+1])%len(foldValues)]}
			if r.Rater != r.Ratee {
				rs = append(rs, r)
			}
		}
		data = data[2*k:]
		if op&0x20 != 0 {
			rs = rating.SnapshotOrder(rs)
		}
		steps = append(steps, foldStep{reset: -1, ratings: rs})
	}
	return steps
}

// FuzzEngineFold pins the row fold to the per-rating map fold it replaced.
// Before each recompute the two must hold the same CSR dirty flags and dirty
// rows; after it, the same local trust for every pair (bitwise), the same
// exported sums, the same Stats and the same trust vector bit for bit. The
// first byte turns FullRecompute on when odd.
func FuzzEngineFold(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{0, 0x30}) // an empty first interval still builds the matrix
	// A sum of 0.5, then −1 and +1 in one interval: the sum nets to where it
	// was, but it went non-positive on the way, so the shape must rebuild and
	// the iteration run — no skip.
	f.Add([]byte{0, 0x01, 1, 4, 0x22, 1, 1, 1, 0})
	f.Add([]byte{1, 0x01, 1, 4, 0x02, 1, 1, 1, 0})
	// Zero and −0 on fresh and positive pairs: quiet intervals that skip.
	f.Add([]byte{0, 0x02, 1, 0, 8, 0, 0x02, 1, 2, 8, 3})
	// Sign flips down and back up across intervals, value-only refreshes,
	// and resets of a rater, a ratee and an untouched node.
	f.Add([]byte{0, 0x24, 1, 0, 7, 0, 8, 6, 14, 1, 0x22, 1, 1, 1, 1, 0x02, 8, 4, 7, 5, 0xc1, 0x21, 14, 0, 0xc2, 0xc5, 0x01, 15, 7})
	// Reset a node that only appears as a positive ratee: its own row is
	// empty, so the shape change comes from another rater's row.
	f.Add([]byte{0, 0x01, 2, 0, 0xc2})
	f.Add(append([]byte{1}, foldSeed(240)...))
	f.Add(append([]byte{0}, foldSeed(240)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := Config{NumNodes: foldNodes, Pretrusted: []int{0, 1}, Workers: 1, FullRecompute: data[0]&1 == 1}
		e := New(cfg)
		ref := newMapFold()
		refT := slices.Clone(e.p)
		var refStats Stats
		for s, step := range foldSteps(data[1:]) {
			if step.reset >= 0 {
				e.forget(step.reset)
				ref.resetNode(step.reset)
			} else {
				e.fold(step.ratings)
				ref.update(step.ratings)
			}
			if e.csr.shapeDirty != ref.shapeDirty || e.csr.valsDirty != ref.valsDirty || !slices.Equal(e.csr.dirtyRows, ref.dirtyRows) {
				t.Fatalf("step %d: dirty flags shape=%v vals=%v rows=%v, want %v %v %v", s,
					e.csr.shapeDirty, e.csr.valsDirty, e.csr.dirtyRows, ref.shapeDirty, ref.valsDirty, ref.dirtyRows)
			}
			e.powerIterate()
			refT, refStats = ref.iterate(e.cfg, e.p, refT, refStats)

			for i := 0; i < foldNodes; i++ {
				for j := 0; j < foldNodes; j++ {
					got, want := e.LocalTrust(i, j), ref.sums[rating.PairKey{Rater: i, Ratee: j}]
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("step %d: LocalTrust(%d,%d) = %v, want %v", s, i, j, got, want)
					}
				}
			}
			if got := e.ExportState().Sums; !reflect.DeepEqual(got, ref.sums) {
				t.Fatalf("step %d: exported sums %v, want %v", s, got, ref.sums)
			}
			if e.Stats() != refStats {
				t.Fatalf("step %d: Stats %+v, want %+v", s, e.Stats(), refStats)
			}
			for j := range refT {
				if math.Float64bits(e.t[j]) != math.Float64bits(refT[j]) {
					t.Fatalf("step %d: t[%d] = %v, want %v", s, j, e.t[j], refT[j])
				}
			}
		}
	})
}

// foldSeed builds a fuzz seed of n bytes from a fixed linear congruential
// stream: a mix of intervals in both orders and resets.
func foldSeed(n int) []byte { return lcgBytes(7, n) }

// lcgBytes returns the first n bytes of the linear congruential stream that
// starts at x.
func lcgBytes(x uint32, n int) []byte {
	data := make([]byte, n)
	for i := range data {
		x = x*1664525 + 1013904223
		data[i] = byte(x >> 24)
	}
	return data
}

// TestSimple1FixedPoint pins the engine to a hand-computed EigenTrust fixed
// point on go-eigentrust's Simple1 graph: local trust 0→1 of 1, 0→2 of 2,
// 1→2 of 1 and 2→0 of 1, so c01 = 1/3, c02 = 2/3, c12 = 1 and c20 = 1.
// Pretrust is uniform over {0, 1}, p = (½, ½, 0), with a = 0.1. The fixed
// point t = (1−a)·Cᵀt + a·p reads
//
//	t0 = 0.9·t2 + 0.05
//	t1 = 0.3·t0 + 0.05
//	t2 = 0.6·t0 + 0.9·t1
//
// Substituting, t2 = 0.87·t0 + 0.045 and t0 = 0.783·t0 + 0.0905, so
// t0 = 0.0905/0.217 = 181/434, t1 = 76/434 and t2 = 177/434.
func TestSimple1FixedPoint(t *testing.T) {
	want := []float64{181.0 / 434, 76.0 / 434, 177.0 / 434}
	for _, workers := range []int{1, 4} {
		for _, full := range []bool{false, true} {
			e := New(Config{NumNodes: 3, Pretrusted: []int{0, 1}, PretrustWeight: 0.1,
				Epsilon: 1e-14, MaxIter: 1000, Workers: workers, FullRecompute: full})
			e.Update(snap(
				rating.Rating{Rater: 0, Ratee: 1, Value: 1},
				rating.Rating{Rater: 0, Ratee: 2, Value: 2},
				rating.Rating{Rater: 1, Ratee: 2, Value: 1},
				rating.Rating{Rater: 2, Ratee: 0, Value: 1},
			))
			if !e.Stats().Converged {
				t.Fatalf("workers=%d full=%v: did not converge: %+v", workers, full, e.Stats())
			}
			for i, w := range want {
				if got := e.Reputation(i); math.Abs(got-w) > 1e-9 {
					t.Errorf("workers=%d full=%v: t%d = %.12f, want %.12f", workers, full, i, got, w)
				}
			}
		}
	}
}

// TestStateValidate has one case per rule a state read from a file must
// meet before ImportState indexes rows by its IDs.
func TestStateValidate(t *testing.T) {
	const n = 4
	valid := func() State {
		return State{Sums: map[rating.PairKey]float64{{Rater: 0, Ratee: 1}: 2, {Rater: 3, Ratee: 0}: -1}, T: make([]float64, n)}
	}
	cases := []struct {
		name   string
		mutate func(*State)
	}{
		{"valid", func(*State) {}},
		{"trust vector length", func(st *State) { st.T = st.T[:n-1] }},
		{"rater below range", func(st *State) { st.Sums[rating.PairKey{Rater: -1, Ratee: 0}] = 1 }},
		{"rater above range", func(st *State) { st.Sums[rating.PairKey{Rater: n, Ratee: 0}] = 1 }},
		{"ratee below range", func(st *State) { st.Sums[rating.PairKey{Rater: 0, Ratee: -1}] = 1 }},
		{"ratee above range", func(st *State) { st.Sums[rating.PairKey{Rater: 0, Ratee: n}] = 1 }},
		{"self pair", func(st *State) { st.Sums[rating.PairKey{Rater: 2, Ratee: 2}] = 1 }},
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
