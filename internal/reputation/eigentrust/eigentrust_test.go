package eigentrust

import (
	"math"
	"testing"
	"testing/quick"

	"socialtrust/internal/rating"
)

func snap(rs ...rating.Rating) rating.Snapshot {
	return rating.Snapshot{Ratings: rs}
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func TestNewValidation(t *testing.T) {
	for _, bad := range []Config{
		{NumNodes: 0},
		{NumNodes: 5, PretrustWeight: 1.5},
		{NumNodes: 5, Pretrusted: []int{9}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v should panic", bad)
				}
			}()
			New(bad)
		}()
	}
}

func TestInitialReputationIsPretrustDistribution(t *testing.T) {
	e := New(Config{NumNodes: 4, Pretrusted: []int{0, 1}})
	r := e.Reputations()
	if r[0] != 0.5 || r[1] != 0.5 || r[2] != 0 || r[3] != 0 {
		t.Fatalf("initial reputations = %v", r)
	}
	e2 := New(Config{NumNodes: 4})
	for _, v := range e2.Reputations() {
		if v != 0.25 {
			t.Fatalf("uniform initial reputations = %v", e2.Reputations())
		}
	}
}

func TestReputationsSumToOne(t *testing.T) {
	e := New(Config{NumNodes: 5, Pretrusted: []int{0}})
	e.Update(snap(
		rating.Rating{Rater: 0, Ratee: 1, Value: 1},
		rating.Rating{Rater: 1, Ratee: 2, Value: 1},
		rating.Rating{Rater: 2, Ratee: 0, Value: 1},
	))
	if s := sum(e.Reputations()); math.Abs(s-1) > 1e-9 {
		t.Fatalf("reputations sum = %v, want 1", s)
	}
}

func TestWellBehavedNodeGainsTrust(t *testing.T) {
	// Node 1 is rated positively by everyone (including the pretrusted
	// node); node 3 receives nothing. Node 1 must end above node 3.
	e := New(Config{NumNodes: 4, Pretrusted: []int{0}})
	e.Update(snap(
		rating.Rating{Rater: 0, Ratee: 1, Value: 5},
		rating.Rating{Rater: 2, Ratee: 1, Value: 5},
		rating.Rating{Rater: 3, Ratee: 1, Value: 5},
	))
	r := e.Reputations()
	if r[1] <= r[3] {
		t.Fatalf("popular node not above idle node: %v", r)
	}
	if r[0] == 0 {
		t.Fatal("pretrusted node should retain trust via a·p")
	}
}

func TestNegativeLocalTrustClamped(t *testing.T) {
	// Node 2 receives only negative feedback: its local trust is clamped
	// to zero, so only the (1−a) dangling + a·p flow can reach it — which
	// is zero for a non-pretrusted node.
	e := New(Config{NumNodes: 3, Pretrusted: []int{0}})
	e.Update(snap(
		rating.Rating{Rater: 0, Ratee: 1, Value: 3},
		rating.Rating{Rater: 0, Ratee: 2, Value: -5},
		rating.Rating{Rater: 1, Ratee: 2, Value: -5},
	))
	r := e.Reputations()
	if r[2] != 0 {
		t.Fatalf("negatively rated node reputation = %v, want 0", r[2])
	}
	if got := e.LocalTrust(0, 2); got != -5 {
		t.Fatalf("LocalTrust(0,2) = %v, want -5", got)
	}
}

func TestLocalTrustAccumulatesAcrossIntervals(t *testing.T) {
	e := New(Config{NumNodes: 3, Pretrusted: []int{0}})
	e.Update(snap(rating.Rating{Rater: 0, Ratee: 1, Value: 1}))
	e.Update(snap(rating.Rating{Rater: 0, Ratee: 1, Value: 2}))
	if got := e.LocalTrust(0, 1); got != 3 {
		t.Fatalf("LocalTrust = %v, want 3", got)
	}
}

func TestSignFlipUpdatesOutlinks(t *testing.T) {
	// Local trust goes positive then net-negative: the outlink must vanish
	// and reputation flow stop.
	e := New(Config{NumNodes: 3, Pretrusted: []int{0}})
	e.Update(snap(rating.Rating{Rater: 0, Ratee: 1, Value: 2}))
	r1 := e.Reputation(1)
	if r1 == 0 {
		t.Fatal("node 1 should have gained trust")
	}
	e.Update(snap(rating.Rating{Rater: 0, Ratee: 1, Value: -10}))
	if got := e.Reputation(1); got != 0 {
		t.Fatalf("after net-negative, reputation = %v, want 0", got)
	}
}

func TestCollusionPairDominatesWithoutDefense(t *testing.T) {
	// The EigenTrust weakness the paper exploits: two colluders that only
	// rate each other capture circulating trust mass once they have any
	// inflow from honest nodes.
	const n = 10
	e := New(Config{NumNodes: n, Pretrusted: []int{0}})
	var rs []rating.Rating
	// Honest background: everyone mildly rates node 9.
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if i != j {
				rs = append(rs, rating.Rating{Rater: i, Ratee: j, Value: 1})
			}
		}
		rs = append(rs, rating.Rating{Rater: i, Ratee: 8, Value: 1}) // colluders get some honest inflow
	}
	// Colluders 8 and 9 rate each other massively.
	rs = append(rs,
		rating.Rating{Rater: 8, Ratee: 9, Value: 500},
		rating.Rating{Rater: 9, Ratee: 8, Value: 500},
	)
	e.Update(snap(rs...))
	r := e.Reputations()
	honestMax := 0.0
	for i := 1; i < 8; i++ {
		if r[i] > honestMax {
			honestMax = r[i]
		}
	}
	if r[8] <= honestMax && r[9] <= honestMax {
		t.Fatalf("collusion pair should exceed honest nodes: colluders %v/%v honest max %v",
			r[8], r[9], honestMax)
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	mk := func(workers int) []float64 {
		e := New(Config{NumNodes: 40, Pretrusted: []int{0, 1}, Workers: workers})
		var rs []rating.Rating
		for i := 0; i < 40; i++ {
			for d := 1; d <= 3; d++ {
				rs = append(rs, rating.Rating{Rater: i, Ratee: (i + d) % 40, Value: float64(d)})
			}
		}
		e.Update(snap(rs...))
		return e.Reputations()
	}
	serial, parallel := mk(1), mk(8)
	for i := range serial {
		if math.Abs(serial[i]-parallel[i]) > 1e-12 {
			t.Fatalf("parallel diverges at %d: %v vs %v", i, serial[i], parallel[i])
		}
	}
}

func TestReset(t *testing.T) {
	e := New(Config{NumNodes: 3, Pretrusted: []int{0}})
	e.Update(snap(rating.Rating{Rater: 0, Ratee: 1, Value: 5}))
	e.Reset()
	r := e.Reputations()
	if r[0] != 1 || r[1] != 0 {
		t.Fatalf("after Reset reputations = %v", r)
	}
	if e.LocalTrust(0, 1) != 0 {
		t.Fatal("local trust survived Reset")
	}
}

func TestReputationPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{NumNodes: 2}).Reputation(5)
}

func TestName(t *testing.T) {
	if New(Config{NumNodes: 2}).Name() != "EigenTrust" {
		t.Fatal("Name mismatch")
	}
}

func TestStochasticVectorProperty(t *testing.T) {
	// For any rating pattern, the trust vector remains a probability
	// distribution: non-negative, summing to 1.
	f := func(events []uint16) bool {
		const n = 9
		e := New(Config{NumNodes: n, Pretrusted: []int{0}})
		var rs []rating.Rating
		for _, ev := range events {
			i, j := int(ev%n), int((ev/n)%n)
			if i == j {
				continue
			}
			v := float64(int(ev%5) - 2) // values in [-2,2]
			rs = append(rs, rating.Rating{Rater: i, Ratee: j, Value: v})
		}
		e.Update(snap(rs...))
		total := 0.0
		for _, v := range e.Reputations() {
			if v < -1e-12 || math.IsNaN(v) {
				return false
			}
			total += v
		}
		return math.Abs(total-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	mk := func() []float64 {
		e := New(Config{NumNodes: 20, Pretrusted: []int{0}, Workers: 4})
		var rs []rating.Rating
		for i := 0; i < 20; i++ {
			rs = append(rs, rating.Rating{Rater: i, Ratee: (i + 1) % 20, Value: 1})
		}
		e.Update(snap(rs...))
		return e.Reputations()
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestResetNodeForgetsBothRoles(t *testing.T) {
	e := New(Config{NumNodes: 4, Pretrusted: []int{0}})
	e.Update(snap(
		rating.Rating{Rater: 0, Ratee: 1, Value: 5},
		rating.Rating{Rater: 1, Ratee: 2, Value: 5},
		rating.Rating{Rater: 3, Ratee: 1, Value: 5},
	))
	if e.Reputation(1) == 0 {
		t.Fatal("precondition: node 1 has trust")
	}
	e.ResetNode(1)
	if e.LocalTrust(0, 1) != 0 || e.LocalTrust(1, 2) != 0 || e.LocalTrust(3, 1) != 0 {
		t.Fatal("local trust involving node 1 survived ResetNode")
	}
	if got := e.Reputation(1); got != 0 {
		t.Fatalf("reputation after ResetNode = %v", got)
	}
}
