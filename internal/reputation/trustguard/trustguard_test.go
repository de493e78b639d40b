package trustguard

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"socialtrust/internal/rating"
	"socialtrust/internal/reputation"
)

func snap(rs ...rating.Rating) rating.Snapshot { return rating.Snapshot{Ratings: rs} }

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NumNodes 0 should panic")
		}
	}()
	New(Config{})
}

func TestName(t *testing.T) {
	if New(Config{NumNodes: 2}).Name() != "TrustGuard" {
		t.Fatal("Name mismatch")
	}
}

func TestBasicPositiveFeedback(t *testing.T) {
	e := New(Config{NumNodes: 4})
	e.Update(snap(
		rating.Rating{Rater: 0, Ratee: 1, Value: 1},
		rating.Rating{Rater: 2, Ratee: 1, Value: 1},
	))
	r := e.Reputations()
	if r[1] != 1 {
		t.Fatalf("well-rated node reputation = %v, want 1 (only positive node)", r[1])
	}
}

func TestReputationsNormalized(t *testing.T) {
	e := New(Config{NumNodes: 6})
	e.Update(snap(
		rating.Rating{Rater: 0, Ratee: 1, Value: 1},
		rating.Rating{Rater: 1, Ratee: 2, Value: 1},
		rating.Rating{Rater: 2, Ratee: 3, Value: -1},
	))
	sum := 0.0
	for _, v := range e.Reputations() {
		if v < 0 {
			t.Fatalf("negative reputation %v", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("reputations sum to %v", sum)
	}
}

func TestDissentersLoseCredibility(t *testing.T) {
	// Raters 0,1,2 agree node 5 is good; rater 3 praises node 4 that
	// everyone else pans. Rater 3's dissenting voice should barely move
	// node 4 upward.
	e := New(Config{NumNodes: 6})
	var rs []rating.Rating
	for _, rater := range []int{0, 1, 2} {
		rs = append(rs,
			rating.Rating{Rater: rater, Ratee: 5, Value: 1},
			rating.Rating{Rater: rater, Ratee: 4, Value: -1},
		)
	}
	rs = append(rs, rating.Rating{Rater: 3, Ratee: 4, Value: 1})
	rs = append(rs, rating.Rating{Rater: 3, Ratee: 5, Value: -1}) // also dissents on 5
	e.Update(snap(rs...))
	r := e.Reputations()
	if r[4] >= r[5]/4 {
		t.Fatalf("dissenter kept node 4 at %v vs consensus-good node 5 at %v", r[4], r[5])
	}
}

func TestCollusionCliqueDampened(t *testing.T) {
	// Without credibility weighting, colluders 4,5 praising each other
	// while panning everyone else would rival honest nodes. TrustGuard's
	// PSM should crush their voice.
	e := New(Config{NumNodes: 6})
	var rs []rating.Rating
	// Honest cross-ratings: 0..3 rate each other well.
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i != j {
				rs = append(rs, rating.Rating{Rater: i, Ratee: j, Value: 1})
			}
		}
		// Honest nodes rate the colluders poorly.
		rs = append(rs, rating.Rating{Rater: i, Ratee: 4, Value: -1})
		rs = append(rs, rating.Rating{Rater: i, Ratee: 5, Value: -1})
	}
	// Colluders praise each other at high frequency and pan the honest.
	for k := 0; k < 50; k++ {
		rs = append(rs, rating.Rating{Rater: 4, Ratee: 5, Value: 1})
		rs = append(rs, rating.Rating{Rater: 5, Ratee: 4, Value: 1})
	}
	for i := 0; i < 4; i++ {
		rs = append(rs, rating.Rating{Rater: 4, Ratee: i, Value: -1})
		rs = append(rs, rating.Rating{Rater: 5, Ratee: i, Value: -1})
	}
	e.Update(snap(rs...))
	r := e.Reputations()
	minHonest := math.Inf(1)
	for i := 0; i < 4; i++ {
		if r[i] < minHonest {
			minHonest = r[i]
		}
	}
	if r[4] >= minHonest || r[5] >= minHonest {
		t.Fatalf("colluders %v/%v not below honest floor %v", r[4], r[5], minHonest)
	}
}

func TestFluctuationPenalty(t *testing.T) {
	// A node behaving well for several intervals then spiking is penalized
	// relative to its steady history.
	steady := New(Config{NumNodes: 3})
	burst := New(Config{NumNodes: 3})
	for k := 0; k < 5; k++ {
		steady.Update(snap(rating.Rating{Rater: 0, Ratee: 1, Value: 0.6}))
		v := 0.0
		if k == 4 {
			v = 1 // all value in one burst
		}
		if v != 0 {
			burst.Update(snap(rating.Rating{Rater: 0, Ratee: 1, Value: v}))
		} else {
			burst.Update(snap(rating.Rating{Rater: 0, Ratee: 2, Value: 0.1}))
		}
	}
	// Both end normalized; compare the blended raw behavior via relative
	// standing: the steady node holds full reputation, the burst node's
	// spike is discounted against its empty history.
	if steady.Reputation(1) != 1 {
		t.Fatalf("steady node reputation = %v, want 1", steady.Reputation(1))
	}
	if burst.Reputation(1) >= 0.9 {
		t.Fatalf("burst node reputation = %v, want discounted", burst.Reputation(1))
	}
}

func TestAccumulatesAcrossIntervals(t *testing.T) {
	e := New(Config{NumNodes: 3})
	for k := 0; k < 3; k++ {
		e.Update(snap(rating.Rating{Rater: 0, Ratee: 1, Value: 1}))
	}
	if e.Reputation(1) != 1 {
		t.Fatalf("reputation = %v", e.Reputation(1))
	}
}

func TestReset(t *testing.T) {
	e := New(Config{NumNodes: 3})
	e.Update(snap(rating.Rating{Rater: 0, Ratee: 1, Value: 1}))
	e.Reset()
	for _, v := range e.Reputations() {
		if v != 0 {
			t.Fatal("Reset failed")
		}
	}
}

func TestReputationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{NumNodes: 2}).Reputation(7)
}

func TestDeterministic(t *testing.T) {
	mk := func() []float64 {
		e := New(Config{NumNodes: 12})
		var rs []rating.Rating
		for i := 0; i < 12; i++ {
			for d := 1; d <= 3; d++ {
				rs = append(rs, rating.Rating{Rater: i, Ratee: (i + d) % 12, Value: float64(d%2)*2 - 1})
			}
		}
		e.Update(snap(rs...))
		e.Update(snap(rs...))
		return e.Reputations()
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d", i)
		}
	}
}

func TestResetNode(t *testing.T) {
	e := New(Config{NumNodes: 4})
	e.Update(snap(
		rating.Rating{Rater: 0, Ratee: 1, Value: 1},
		rating.Rating{Rater: 1, Ratee: 2, Value: 1},
	))
	e.ResetNode(1)
	if e.Reputation(1) != 0 {
		t.Fatal("reputation survived ResetNode")
	}
	// A fresh interval must not resurrect forgotten opinions.
	e.Update(snap(rating.Rating{Rater: 0, Ratee: 3, Value: 1}))
	if e.Reputation(2) != 0 {
		t.Fatal("node 2's trust should have vanished with its only rater's reset")
	}
}

// updateReference is Update with the per-opinion credibility closure it had
// before each rater's credibility was computed once per call: every
// (ratee, rater) opinion re-walks all of that rater's opinions.
func updateReference(e *Engine, snap rating.Snapshot) {
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
	byRatee := make(map[int][]int)
	byRater := make(map[int][]int)
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
	credibility := func(rater int) float64 {
		ratees := byRater[rater]
		if len(ratees) == 0 {
			return e.cfg.MinCredibility
		}
		sum := 0.0
		for _, j := range ratees {
			d := e.opinions[rating.PairKey{Rater: rater, Ratee: j}].mean() - consensus[j]
			sum += (d / 2) * (d / 2)
		}
		cred := 1 - math.Sqrt(sum/float64(len(ratees)))
		if cred < e.cfg.MinCredibility {
			cred = e.cfg.MinCredibility
		}
		return cred
	}
	raw := make([]float64, e.cfg.NumNodes)
	for ratee := 0; ratee < e.cfg.NumNodes; ratee++ {
		raters := byRatee[ratee]
		if len(raters) == 0 {
			continue
		}
		var num, den float64
		for _, r := range raters {
			c := credibility(r)
			num += c * e.opinions[rating.PairKey{Rater: r, Ratee: ratee}].mean()
			den += c
		}
		if den > 0 {
			raw[ratee] = num / den
		}
	}
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

// TestUpdateMatchesPerOpinionCredibility runs Update and updateReference
// side by side over random multi-interval runs — fractional values of both
// signs, zeros, repeated pairs, occasional node resets and two credibility
// floors — and requires bit-identical reputations after every interval.
func TestUpdateMatchesPerOpinionCredibility(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.IntN(30)
		cfg := Config{NumNodes: n}
		if trial%2 == 1 {
			cfg.MinCredibility = 0.6
		}
		got, want := New(cfg), New(cfg)
		for iv, intervals := 0, 1+rng.IntN(6); iv < intervals; iv++ {
			var rs []rating.Rating
			for k := rng.IntN(4 * n); k > 0; k-- {
				rater, ratee := rng.IntN(n), rng.IntN(n)
				if rater == ratee {
					continue
				}
				v := float64(rng.IntN(9)-4) / 4 // −1 … 1 in quarters
				rs = append(rs, rating.Rating{Rater: rater, Ratee: ratee, Value: v})
			}
			snap := rating.Snapshot{Ratings: rating.SnapshotOrder(rs)}
			got.Update(snap)
			updateReference(want, snap)
			g, w := got.Reputations(), want.Reputations()
			for j := range w {
				if math.Float64bits(g[j]) != math.Float64bits(w[j]) {
					t.Fatalf("trial %d interval %d node %d: reputation %v, per-opinion reference %v", trial, iv, j, g[j], w[j])
				}
			}
			if rng.IntN(4) == 0 {
				node := rng.IntN(n)
				got.ResetNode(node)
				want.ResetNode(node)
			}
		}
	}
}
