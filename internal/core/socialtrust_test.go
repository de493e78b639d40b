package core

import (
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"socialtrust/internal/interest"
	"socialtrust/internal/rating"
	"socialtrust/internal/reputation/ebay"
	"socialtrust/internal/socialgraph"
)

// fixture builds a 12-node scenario: nodes 0..9 are normal peers arranged in
// a ring with shared interests; nodes 10 and 11 are a colluding pair with
// many relationships, massive mutual interaction, and disjoint interests.
type fixture struct {
	graph   *socialgraph.Graph
	sets    []interest.Set
	tracker *interest.Tracker
	ledger  *rating.Ledger
}

const fixtureN = 12

func newFixture() *fixture {
	g := socialgraph.New(fixtureN)
	sets := make([]interest.Set, fixtureN)
	// Normal ring 0..9, one friendship relationship per adjacent pair.
	for i := 0; i < 10; i++ {
		j := (i + 1) % 10
		g.AddRelationship(socialgraph.NodeID(i), socialgraph.NodeID(j),
			socialgraph.Relationship{Kind: socialgraph.Friendship})
		// Nodes 0 and 1 are high-similarity competitors (identical sets);
		// the rest of the ring shares only category 1 pairwise (sim 0.5),
		// giving the baseline similarity distribution some spread.
		if i < 2 {
			sets[i] = interest.NewSet(1, 2, 3)
		} else {
			sets[i] = interest.NewSet(1, interest.Category(10+i))
		}
	}
	// Colluders: 4 relationships between them, plus one weak link into the
	// ring so they are reachable.
	for k := 0; k < 4; k++ {
		g.AddRelationship(10, 11, socialgraph.Relationship{Kind: socialgraph.Kinship})
	}
	g.AddRelationship(10, 0, socialgraph.Relationship{Kind: socialgraph.Friendship})
	g.AddRelationship(11, 5, socialgraph.Relationship{Kind: socialgraph.Friendship})
	sets[10] = interest.NewSet(17)
	sets[11] = interest.NewSet(18)
	return &fixture{
		graph:   g,
		sets:    sets,
		tracker: interest.NewTracker(fixtureN),
		ledger:  rating.NewLedger(fixtureN),
	}
}

// normalTraffic records balanced service ratings among the ring nodes:
// each node rates both neighbors twice, positively.
func (f *fixture) normalTraffic() {
	for i := 0; i < 10; i++ {
		for _, j := range []int{(i + 1) % 10, (i + 9) % 10} {
			for k := 0; k < 2; k++ {
				f.rate(i, j, 1)
			}
		}
	}
}

// collusionTraffic records the colluders' mutual rating spam.
func (f *fixture) collusionTraffic(times int) {
	for k := 0; k < times; k++ {
		f.rate(10, 11, 1)
		f.rate(11, 10, 1)
	}
}

func (f *fixture) rate(i, j int, v float64) {
	if err := f.ledger.Add(rating.Rating{Rater: i, Ratee: j, Value: v}); err != nil {
		panic(err)
	}
	f.graph.RecordInteraction(socialgraph.NodeID(i), socialgraph.NodeID(j), 1)
}

func (f *fixture) socialTrust(cfg Config) *SocialTrust {
	cfg.NumNodes = fixtureN
	return New(cfg, f.graph, f.sets, f.tracker, ebay.New(fixtureN))
}

func TestNewValidation(t *testing.T) {
	f := newFixture()
	cases := []func(){
		func() { New(Config{NumNodes: 0}, f.graph, f.sets, f.tracker, ebay.New(fixtureN)) },
		func() { New(Config{NumNodes: fixtureN}, nil, f.sets, f.tracker, ebay.New(fixtureN)) },
		func() { New(Config{NumNodes: fixtureN}, f.graph, f.sets[:3], f.tracker, ebay.New(fixtureN)) },
		func() { New(Config{NumNodes: fixtureN}, f.graph, f.sets, f.tracker, nil) },
		func() {
			New(Config{NumNodes: fixtureN, WeightedSimilarity: true}, f.graph, f.sets, nil, ebay.New(fixtureN))
		},
	}
	for i, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d should panic", i)
				}
			}()
			c()
		}()
	}
}

// TestWithDefaultsKeepsClosenessChoices pins that defaulting fills only the
// closeness fields left at zero: a weighted config without a hop cutoff
// keeps Equation 10 and its λ instead of falling back to Equation 2.
func TestWithDefaultsKeepsClosenessChoices(t *testing.T) {
	for _, tc := range []struct {
		in, want socialgraph.ClosenessParams
	}{
		{socialgraph.ClosenessParams{}, socialgraph.ClosenessParams{Weighted: false, Lambda: 0.75, MaxPathHops: 6}},
		{socialgraph.ClosenessParams{Weighted: true, Lambda: 0.9}, socialgraph.ClosenessParams{Weighted: true, Lambda: 0.9, MaxPathHops: 6}},
		{socialgraph.ClosenessParams{Weighted: true}, socialgraph.ClosenessParams{Weighted: true, Lambda: 0.75, MaxPathHops: 6}},
		{socialgraph.ClosenessParams{MaxPathHops: 3}, socialgraph.ClosenessParams{Lambda: 0.75, MaxPathHops: 3}},
	} {
		if got := (Config{NumNodes: 4, Closeness: tc.in}).withDefaults().Closeness; got != tc.want {
			t.Errorf("withDefaults(%+v).Closeness = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

func TestName(t *testing.T) {
	f := newFixture()
	if got := f.socialTrust(Config{}).Name(); got != "eBay+SocialTrust" {
		t.Fatalf("Name = %q", got)
	}
}

func TestBehaviorString(t *testing.T) {
	if got := (B1 | B3).String(); got != "B1|B3" {
		t.Fatalf("String = %q", got)
	}
	if Behavior(0).String() != "none" {
		t.Fatal("zero behavior should be none")
	}
	if B4.String() != "B4" {
		t.Fatal("B4 mismatch")
	}
}

func TestColludingPairDetectedAndShrunk(t *testing.T) {
	f := newFixture()
	f.normalTraffic()
	f.collusionTraffic(50)
	st := f.socialTrust(Config{})
	snap := f.ledger.EndInterval()
	adjusted, report := st.Adjust(snap)

	if len(report.Adjusted) == 0 {
		t.Fatal("collusion pair not flagged")
	}
	flagged := map[rating.PairKey]PairAdjustment{}
	for _, a := range report.Adjusted {
		flagged[a.Pair] = a
	}
	for _, k := range []rating.PairKey{{Rater: 10, Ratee: 11}, {Rater: 11, Ratee: 10}} {
		adj, ok := flagged[k]
		if !ok {
			t.Fatalf("pair %+v not flagged; report %+v", k, report.Adjusted)
		}
		if adj.Weight >= 0.5 {
			t.Errorf("pair %+v weight %v, want strong suppression", k, adj.Weight)
		}
		if adj.Behaviors == 0 {
			t.Errorf("pair %+v has no behaviors", k)
		}
	}
	// Normal pairs untouched.
	for _, a := range report.Adjusted {
		if a.Pair.Rater < 10 && a.Pair.Ratee < 10 {
			t.Errorf("normal pair %+v flagged (behaviors %v)", a.Pair, a.Behaviors)
		}
	}
	// Adjusted snapshot has shrunk colluder values, unchanged normal values.
	for i, r := range adjusted.Ratings {
		orig := snap.Ratings[i]
		if r.Rater >= 10 && r.Ratee >= 10 {
			if r.Value >= orig.Value {
				t.Fatalf("colluder rating not shrunk: %v -> %v", orig.Value, r.Value)
			}
		} else if r.Value != orig.Value {
			t.Fatalf("normal rating changed: %+v -> %+v", orig, r)
		}
	}
	// Input snapshot must not be mutated.
	for _, r := range snap.Ratings {
		if r.Value != 1 {
			t.Fatal("Adjust mutated its input")
		}
	}
}

func TestColluderB2Triggered(t *testing.T) {
	// The fixture colluders are socially very close (4 kinship links, all
	// interactions mutual) and the ratee has zero reputation: B2.
	f := newFixture()
	f.normalTraffic()
	f.collusionTraffic(50)
	st := f.socialTrust(Config{})
	_, report := st.Adjust(f.ledger.EndInterval())
	var found Behavior
	for _, a := range report.Adjusted {
		if a.Pair.Rater == 10 && a.Pair.Ratee == 11 {
			found = a.Behaviors
		}
	}
	if found&B2 == 0 && found&B3 == 0 {
		t.Fatalf("colluder should trigger B2 (close, low-rep) or B3 (no shared interests); got %v", found)
	}
}

func TestB4NegativeCampaignDetected(t *testing.T) {
	// Node 0 floods its high-similarity competitor node 1 with negatives.
	f := newFixture()
	f.normalTraffic()
	for k := 0; k < 40; k++ {
		f.rate(0, 1, -1)
	}
	st := f.socialTrust(Config{})
	_, report := st.Adjust(f.ledger.EndInterval())
	var adj *PairAdjustment
	for i := range report.Adjusted {
		if report.Adjusted[i].Pair == (rating.PairKey{Rater: 0, Ratee: 1}) {
			adj = &report.Adjusted[i]
		}
	}
	if adj == nil {
		t.Fatal("negative campaign not flagged")
	}
	if adj.Behaviors&B4 == 0 {
		t.Fatalf("behaviors = %v, want B4", adj.Behaviors)
	}
}

// TestAdjustUnorderedSnapshot checks that Adjust takes a snapshot out of
// snapshot order — a shuffled copy of a ledger's — as the same interval: the
// same pairs flagged with the same weights, the same Report, and the same
// ratings back in snapshot order.
func TestAdjustUnorderedSnapshot(t *testing.T) {
	f := newFixture()
	f.normalTraffic()
	f.collusionTraffic(30)
	for k := 0; k < 40; k++ {
		f.rate(0, 1, -1)
	}
	snap := f.ledger.EndInterval()
	// Sequence the ratings, one cycle each, so the snapshot carries a MaxSeq
	// that Adjust must hand on to the wrapped engine, and no two ratings tie
	// in snapshot order.
	for i := range snap.Ratings {
		snap.Ratings[i].Cycle, snap.Ratings[i].Seq = i, uint64(i+1)
	}
	snap.MaxSeq = uint64(len(snap.Ratings))
	shuffled := slices.Clone(snap.Ratings)
	rand.New(rand.NewPCG(1, 2)).Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
	if rating.RunsIncrease(rating.PairRuns(shuffled, nil)) {
		t.Fatal("the shuffle left the ratings in (ratee, rater) order")
	}

	want, wantReport := f.socialTrust(Config{}).Adjust(snap)
	got, gotReport := f.socialTrust(Config{}).Adjust(rating.Snapshot{Ratings: shuffled, MaxSeq: snap.MaxSeq})
	if want.MaxSeq != snap.MaxSeq || got.MaxSeq != snap.MaxSeq {
		t.Fatalf("adjusted MaxSeq %d (ordered input), %d (shuffled), want %d", want.MaxSeq, got.MaxSeq, snap.MaxSeq)
	}
	if len(wantReport.Adjusted) < 3 {
		t.Fatalf("the fixture flags %d pairs, want the colluders both ways and the B4 campaign", len(wantReport.Adjusted))
	}
	if !reflect.DeepEqual(gotReport, wantReport) {
		t.Fatalf("report on the shuffled snapshot:\n%+v\nwant\n%+v", gotReport, wantReport)
	}
	if !slices.Equal(got.Ratings, want.Ratings) {
		t.Fatalf("ratings on the shuffled snapshot:\n%v\nwant\n%v", got.Ratings, want.Ratings)
	}
}

// TestByRaterOrder pins the pair order Adjust works in: byRater puts the
// snapshot's pair runs in (rater, ratee) order, each run intact.
func TestByRaterOrder(t *testing.T) {
	st, snap := perfScenario(200, 1)
	runs := rating.PairRuns(snap.Ratings, nil)
	want := slices.Clone(runs)
	slices.SortFunc(want, func(a, b rating.PairRun) int {
		if a.Rater != b.Rater {
			return a.Rater - b.Rater
		}
		return a.Ratee - b.Ratee
	})
	if got := st.byRater(runs); !slices.Equal(got, want) {
		t.Fatalf("byRater order:\n%v\nwant\n%v", got, want)
	}
}

// heldSnapshot is an inner engine that keeps the snapshot it was handed.
type heldSnapshot struct {
	fixedReps
	got rating.Snapshot
}

func (h *heldSnapshot) Update(snap rating.Snapshot) { h.got = snap }

// TestUpdateReweightsInPlace pins Update's ownership of its snapshot: it
// scales the flagged runs of snap.Ratings in place, to exactly what Adjust
// returns for a copy of the snapshot, and hands that same backing array to
// the inner engine.
func TestUpdateReweightsInPlace(t *testing.T) {
	f := newFixture()
	f.normalTraffic()
	f.collusionTraffic(50)
	drained := f.ledger.EndInterval()
	fresh := func() rating.Snapshot {
		return rating.Snapshot{Ratings: slices.Clone(drained.Ratings), MaxSeq: drained.MaxSeq}
	}
	inner := &heldSnapshot{fixedReps: make(fixedReps, fixtureN)}
	st := New(Config{NumNodes: fixtureN}, f.graph, f.sets, f.tracker, inner)

	want, report := st.Adjust(fresh())
	if len(report.Adjusted) == 0 || slices.Equal(want.Ratings, drained.Ratings) {
		t.Fatal("fixture produced no shrunk ratings")
	}
	snap := fresh()
	st.Update(snap)
	if !slices.Equal(snap.Ratings, want.Ratings) {
		t.Fatalf("Update left the snapshot at\n%v\nwant Adjust's output\n%v", snap.Ratings, want.Ratings)
	}
	if len(inner.got.Ratings) != len(snap.Ratings) || &inner.got.Ratings[0] != &snap.Ratings[0] || inner.got.MaxSeq != snap.MaxSeq {
		t.Fatal("the inner engine did not receive the snapshot Update was handed")
	}
}

func TestUpdateSuppressesColluderReputation(t *testing.T) {
	// End-to-end over several intervals: with SocialTrust, colluders end
	// far below the unprotected baseline.
	run := func(protect bool) float64 {
		f := newFixture()
		inner := ebay.New(fixtureN)
		var engine interface {
			Update(rating.Snapshot)
			Reputations() []float64
		} = inner
		if protect {
			engine = New(Config{NumNodes: fixtureN}, f.graph, f.sets, f.tracker, inner)
		}
		for cycle := 0; cycle < 5; cycle++ {
			f.normalTraffic()
			f.collusionTraffic(50)
			engine.Update(f.ledger.EndInterval())
		}
		r := engine.Reputations()
		return r[10] + r[11]
	}
	unprotected := run(false)
	protected := run(true)
	if protected >= unprotected/4 {
		t.Fatalf("SocialTrust colluder reputation %v vs baseline %v: insufficient suppression",
			protected, unprotected)
	}
}

func TestQuietIntervalNoAdjustments(t *testing.T) {
	f := newFixture()
	f.normalTraffic()
	st := f.socialTrust(Config{})
	adjusted, report := st.Adjust(f.ledger.EndInterval())
	if len(report.Adjusted) != 0 {
		t.Fatalf("normal traffic flagged: %+v", report.Adjusted)
	}
	for _, r := range adjusted.Ratings {
		if r.Value != 1 {
			t.Fatal("normal ratings modified")
		}
	}
}

func TestEmptySnapshot(t *testing.T) {
	f := newFixture()
	st := f.socialTrust(Config{})
	adjusted, report := st.Adjust(rating.Snapshot{})
	if len(adjusted.Ratings) != 0 || len(report.Adjusted) != 0 {
		t.Fatal("empty snapshot should pass through")
	}
	st.Update(rating.Snapshot{}) // must not panic
}

func TestResetClearsState(t *testing.T) {
	f := newFixture()
	st := f.socialTrust(Config{})
	f.normalTraffic()
	f.collusionTraffic(50)
	st.Update(f.ledger.EndInterval())
	if len(st.LastReport().Adjusted) == 0 {
		t.Fatal("precondition: collusion flagged")
	}
	st.Reset()
	if len(st.LastReport().Adjusted) != 0 {
		t.Fatal("LastReport survived Reset")
	}
	for _, v := range st.Reputations() {
		if v != 0 {
			t.Fatal("inner engine not reset")
		}
	}
}

func TestAblationClosenessOnly(t *testing.T) {
	f := newFixture()
	f.normalTraffic()
	f.collusionTraffic(50)
	st := f.socialTrust(Config{UseCloseness: true, UseSimilarity: false})
	_, report := st.Adjust(f.ledger.EndInterval())
	for _, a := range report.Adjusted {
		if a.Behaviors&(B3|B4) != 0 {
			t.Fatalf("similarity behaviors fired in closeness-only mode: %v", a.Behaviors)
		}
	}
}

func TestAblationSimilarityOnly(t *testing.T) {
	f := newFixture()
	f.normalTraffic()
	f.collusionTraffic(50)
	st := f.socialTrust(Config{UseCloseness: false, UseSimilarity: true})
	_, report := st.Adjust(f.ledger.EndInterval())
	found := false
	for _, a := range report.Adjusted {
		if a.Behaviors&(B1|B2) != 0 {
			t.Fatalf("closeness behaviors fired in similarity-only mode: %v", a.Behaviors)
		}
		if a.Pair.Rater >= 10 && a.Behaviors&B3 != 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("disjoint-interest colluders should trigger B3")
	}
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) []PairAdjustment {
		f := newFixture()
		f.normalTraffic()
		f.collusionTraffic(50)
		st := f.socialTrust(Config{Workers: workers})
		_, report := st.Adjust(f.ledger.EndInterval())
		return report.Adjusted
	}
	a, b := run(1), run(8)
	if len(a) != len(b) {
		t.Fatalf("worker counts disagree: %d vs %d adjustments", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("adjustment %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestDeviationGuards(t *testing.T) {
	if d := deviation(0.5, BaselineStats{}); d != 0 {
		t.Fatalf("empty baseline deviation = %v, want 0", d)
	}
	st := BaselineStats{Mean: 0.5, Min: 0.5, Max: 0.5, N: 3}
	if d := deviation(0.5, st); d != 0 {
		t.Fatalf("on-center degenerate deviation = %v, want 0", d)
	}
	if d := deviation(0.9, st); d < 10 {
		t.Fatalf("off-center degenerate deviation = %v, want large", d)
	}
	st = BaselineStats{Mean: 0.4, Min: 0.1, Max: 0.9, N: 5}
	want := (0.6 * 0.6) / (2 * 0.8 * 0.8)
	if d := deviation(1.0, st); math.Abs(d-want) > 1e-12 {
		t.Fatalf("deviation = %v, want %v", d, want)
	}
}

func TestGaussianWeightBoundedProperty(t *testing.T) {
	f := newFixture()
	st := f.socialTrust(Config{})
	prop := func(c, s, mean1, min1, max1, mean2, min2, max2 float64) bool {
		clamp := func(v float64) float64 { return math.Mod(math.Abs(v), 10) }
		b := baseline{
			closeness:  orderedStats(clamp(mean1), clamp(min1), clamp(max1)),
			similarity: orderedStats(clamp(mean2), clamp(min2), clamp(max2)),
		}
		w := st.gaussianWeight(pairSignals{closeness: clamp(c), similar: clamp(s)}, b)
		return w > 0 && w <= alpha+1e-12 && !math.IsNaN(w)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestGaussianWeightHandComputed pins Equations 6, 8 and 9 at points worked
// by hand. Each dimension contributes the exponent (x − mean)²/(2·width²),
// where width is Hi − Lo when the robust range is set (Hi > Lo) and
// Max − Min otherwise:
//
//	Eq. 6, Ωc = 0.2, mean 0.5, Lo/Hi 0.2/0.8 (Min/Max 0/1 ignored):
//	    (0.2 − 0.5)² / (2·0.6²) = 0.09/0.72 = 0.125
//	Eq. 8, Ωs = 0.9, mean 0.4, Lo = Hi = 0.4 (no robust range), Min/Max 0/1:
//	    (0.9 − 0.4)² / (2·1²) = 0.25/2 = 0.125
//	Eq. 9 sums the enabled terms: w = α·e^−(0.125 + 0.125) = e^−0.25
//
// A disabled dimension adds nothing, so each single-signal mode gives
// e^−0.125. A degenerate range (width < 1e−12) keeps w = α on the center and
// collapses it to e^−50 off it.
func TestGaussianWeightHandComputed(t *testing.T) {
	closeness := BaselineStats{Mean: 0.5, Min: 0, Max: 1, Lo: 0.2, Hi: 0.8, N: 10}
	similarity := BaselineStats{Mean: 0.4, Min: 0, Max: 1, Lo: 0.4, Hi: 0.4, N: 10}
	degenerate := BaselineStats{Mean: 0.5, Min: 0.5, Max: 0.5, N: 3}
	sig := pairSignals{closeness: 0.2, similar: 0.9}
	both, closeOnly, simOnly := Config{}, Config{UseCloseness: true}, Config{UseSimilarity: true}
	cases := []struct {
		name string
		cfg  Config
		sig  pairSignals
		base baseline
		want float64
	}{
		{"both", both, sig, baseline{closeness: closeness, similarity: similarity}, math.Exp(-0.25)},
		{"closeness only", closeOnly, sig, baseline{closeness: closeness, similarity: similarity}, math.Exp(-0.125)},
		{"similarity only", simOnly, sig, baseline{closeness: closeness, similarity: similarity}, math.Exp(-0.125)},
		{"empty baseline", both, sig, baseline{}, 1},
		{"degenerate on center", closeOnly, pairSignals{closeness: 0.5}, baseline{closeness: degenerate}, 1},
		{"degenerate off center", closeOnly, pairSignals{closeness: 0.6}, baseline{closeness: degenerate}, math.Exp(-50)},
		{"degenerate beside a live term", both, pairSignals{closeness: 0.5, similar: 0.9}, baseline{closeness: degenerate, similarity: similarity}, math.Exp(-0.125)},
	}
	f := newFixture()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := f.socialTrust(c.cfg).gaussianWeight(c.sig, c.base)
			if math.Abs(got-c.want) > 1e-12*c.want {
				t.Fatalf("weight = %.17g, want %.17g", got, c.want)
			}
		})
	}
}

// orderedStats builds a valid BaselineStats from three arbitrary values.
func orderedStats(a, b, c float64) BaselineStats {
	lo, mid, hi := a, b, c
	if lo > mid {
		lo, mid = mid, lo
	}
	if mid > hi {
		mid, hi = hi, mid
	}
	if lo > mid {
		lo, mid = mid, lo
	}
	return BaselineStats{Mean: mid, Min: lo, Max: hi, N: 3}
}

func TestAdjustedValuesNeverAmplifiedProperty(t *testing.T) {
	// The filter may shrink rating magnitudes, never grow them.
	f := newFixture()
	f.normalTraffic()
	f.collusionTraffic(60)
	for k := 0; k < 30; k++ {
		f.rate(3, 4, -1)
	}
	st := f.socialTrust(Config{})
	snap := f.ledger.EndInterval()
	adjusted, _ := st.Adjust(snap)
	for i := range adjusted.Ratings {
		if math.Abs(adjusted.Ratings[i].Value) > math.Abs(snap.Ratings[i].Value)+1e-12 {
			t.Fatalf("rating amplified: %+v -> %+v", snap.Ratings[i], adjusted.Ratings[i])
		}
		if adjusted.Ratings[i].Value*snap.Ratings[i].Value < 0 {
			t.Fatalf("rating sign flipped: %+v -> %+v", snap.Ratings[i], adjusted.Ratings[i])
		}
	}
}
