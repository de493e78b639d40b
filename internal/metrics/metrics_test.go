package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"socialtrust/internal/sim"
)

// layout builds a config with 2 pretrusted, 4 colluders, 4 normal nodes.
func layout() sim.Config {
	return sim.Config{NumNodes: 10, NumPretrusted: 2, NumColluders: 4}
}

func TestSummarizeGroups(t *testing.T) {
	cfg := layout()
	reps := []float64{
		0.3, 0.3, // pretrusted
		0.01, 0.02, 0.03, 0.04, // colluders
		0.1, 0.1, 0.05, 0.05, // normal
	}
	g := SummarizeGroups(cfg, reps)
	if math.Abs(g.Pretrusted.Mean-0.3) > 1e-12 {
		t.Fatalf("pretrusted mean = %v", g.Pretrusted.Mean)
	}
	if math.Abs(g.Colluder.Mean-0.025) > 1e-12 {
		t.Fatalf("colluder mean = %v", g.Colluder.Mean)
	}
	if math.Abs(g.Normal.Mean-0.075) > 1e-12 {
		t.Fatalf("normal mean = %v", g.Normal.Mean)
	}
	if g.MaxColluder != 0.04 || g.MaxNormal != 0.1 {
		t.Fatalf("maxes = %v/%v", g.MaxColluder, g.MaxNormal)
	}
}

func TestSeparationAUCPerfect(t *testing.T) {
	cfg := layout()
	reps := []float64{
		0.5, 0.5, // pretrusted (ignored)
		0.01, 0.01, 0.02, 0.02, // colluders all below
		0.1, 0.2, 0.3, 0.4, // normal all above
	}
	if auc := SeparationAUC(cfg, reps); auc != 1 {
		t.Fatalf("perfect separation AUC = %v, want 1", auc)
	}
}

func TestSeparationAUCInverted(t *testing.T) {
	cfg := layout()
	reps := []float64{
		0.5, 0.5,
		0.6, 0.7, 0.8, 0.9, // colluders on top: the attack won
		0.1, 0.2, 0.3, 0.4,
	}
	if auc := SeparationAUC(cfg, reps); auc != 0 {
		t.Fatalf("inverted separation AUC = %v, want 0", auc)
	}
}

func TestSeparationAUCTies(t *testing.T) {
	cfg := layout()
	reps := []float64{
		0.5, 0.5,
		0.1, 0.1, 0.1, 0.1,
		0.1, 0.1, 0.1, 0.1, // everything tied
	}
	if auc := SeparationAUC(cfg, reps); math.Abs(auc-0.5) > 1e-9 {
		t.Fatalf("all-ties AUC = %v, want 0.5", auc)
	}
}

func TestSeparationAUCEmptyGroups(t *testing.T) {
	cfg := sim.Config{NumNodes: 4, NumPretrusted: 0, NumColluders: 0}
	if auc := SeparationAUC(cfg, []float64{1, 2, 3, 4}); auc != 0 {
		t.Fatalf("no colluders AUC = %v, want 0", auc)
	}
}

func TestGini(t *testing.T) {
	if g := Gini([]float64{1, 1, 1, 1}); math.Abs(g) > 1e-12 {
		t.Fatalf("uniform Gini = %v, want 0", g)
	}
	// All mass on one of n nodes → (n-1)/n.
	if g := Gini([]float64{0, 0, 0, 1}); math.Abs(g-0.75) > 1e-12 {
		t.Fatalf("concentrated Gini = %v, want 0.75", g)
	}
	if g := Gini(nil); g != 0 {
		t.Fatalf("empty Gini = %v", g)
	}
	if g := Gini([]float64{0, 0}); g != 0 {
		t.Fatalf("zero-mass Gini = %v", g)
	}
}

func TestGiniBoundedProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				continue // reputations are in [0,1]; avoid float overflow
			}
			xs = append(xs, math.Abs(v))
		}
		g := Gini(xs)
		return g >= -1e-9 && g <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAUCBoundedProperty(t *testing.T) {
	cfg := layout()
	f := func(raw [10]float64) bool {
		reps := make([]float64, 10)
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			reps[i] = math.Abs(v)
		}
		auc := SeparationAUC(cfg, reps)
		return auc >= 0 && auc <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
