// Package experiments is the reproduction harness: one registered
// experiment per table and figure of the paper's evaluation (Figures 1–4 of
// the trace study, Figures 7–20 and Table 1 of the simulation study). Each
// experiment regenerates the corresponding rows/series and writes them as
// text. Repetitions run concurrently on seeded streams and report 95%
// confidence intervals, as in Section 5.1.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"socialtrust/internal/metrics"
	"socialtrust/internal/sim"
	"socialtrust/internal/stats"
)

// Options tunes how experiments execute.
type Options struct {
	// Runs is the number of seeded repetitions averaged per configuration
	// (the paper uses 5).
	Runs int
	// Seed is the base seed; repetition r uses Seed+r.
	Seed uint64
	// Quick shrinks the horizon (15 query cycles × 12 simulation cycles)
	// for smoke runs; the full horizon is the paper's 30 × 50.
	Quick bool
	// NodeSeries additionally emits the per-node reputation vector of each
	// panel as CSV lines ("node,type,reputation") — the raw series behind
	// the paper's per-node scatter figures.
	NodeSeries bool
	// Managers, when positive, spreads every run's ratings over that many
	// resource-manager shards (sim.Config.Managers) of the paper's Section
	// 4.3 overlay; zero keeps the simulator's default of one shard.
	Managers int
}

// DefaultOptions mirrors the paper's setup.
func DefaultOptions() Options {
	return Options{Runs: 5, Seed: 1}
}

func (o Options) withDefaults() Options {
	if o.Runs == 0 {
		o.Runs = 5
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Spec is one runnable experiment.
type Spec struct {
	ID          string
	Title       string
	Description string
	Run         func(o Options, w io.Writer) error
}

var registry = map[string]Spec{}

func register(s Spec) {
	if _, dup := registry[s.ID]; dup {
		panic("experiments: duplicate id " + s.ID)
	}
	registry[s.ID] = s
}

// Get returns the experiment with the given id.
func Get(id string) (Spec, bool) {
	s, ok := registry[id]
	return s, ok
}

// All returns every registered experiment sorted by id.
func All() []Spec {
	out := make([]Spec, 0, len(registry))
	for _, s := range registry {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Run executes the experiment with the given id.
func Run(id string, o Options, w io.Writer) error {
	s, ok := Get(id)
	if !ok {
		return fmt.Errorf("experiments: unknown experiment %q (use List)", id)
	}
	return s.Run(o.withDefaults(), w)
}

// applyHorizon adjusts a sim config to the options' horizon and harness
// settings.
func applyHorizon(cfg sim.Config, o Options) sim.Config {
	if o.Quick {
		cfg.QueryCycles = 15
		cfg.SimulationCycles = 12
	}
	if o.Managers > 0 {
		cfg.Managers = o.Managers
	}
	return cfg
}

// Aggregate is the averaged outcome of repeated runs of one configuration.
type Aggregate struct {
	Config sim.Config
	// MeanReputations averages the final reputation vector across runs.
	MeanReputations []float64
	// RequestShare summarizes the colluder request share across runs.
	RequestShare stats.Summary
	// ConvergenceCycles pools per-colluder convergence cycles from all
	// runs (entries of -1, "never converged", are kept).
	ConvergenceCycles []int
}

// aggregate runs cfg Runs times concurrently (seeds Seed, Seed+1, ...) and
// averages.
func aggregate(cfg sim.Config, o Options) (*Aggregate, error) {
	o = o.withDefaults()
	cfg = applyHorizon(cfg, o)
	results := make([]*sim.Result, o.Runs)
	errs := make([]error, o.Runs)
	var wg sync.WaitGroup
	for r := 0; r < o.Runs; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			run := cfg
			run.Seed = o.Seed + uint64(r)
			results[r], errs[r] = sim.Run(run)
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	agg := &Aggregate{Config: cfg, MeanReputations: make([]float64, cfg.NumNodes)}
	shares := make([]float64, 0, o.Runs)
	for _, res := range results {
		for i, v := range res.FinalReputations {
			agg.MeanReputations[i] += v / float64(o.Runs)
		}
		shares = append(shares, res.ColluderRequestShare())
		agg.ConvergenceCycles = append(agg.ConvergenceCycles, res.ConvergenceCycles...)
	}
	agg.RequestShare, _ = stats.Summarize(shares)
	return agg, nil
}

// summarizeGroups summarizes an aggregate's mean reputation vector by node
// type.
func summarizeGroups(agg *Aggregate) metrics.GroupSummary {
	return metrics.SummarizeGroups(agg.Config, agg.MeanReputations)
}

// systemName labels a configuration the way the paper's captions do.
func systemName(cfg sim.Config) string {
	name := cfg.Engine.String()
	if cfg.SocialTrust {
		name += "+SocialTrust"
	}
	if cfg.CompromisedPretrusted > 0 {
		name += " (Pre)"
	}
	return name
}

// printDistribution writes one figure panel: the per-group reputation
// summary that captures the shape of the paper's per-node scatter plots,
// plus the colluder/honest separation AUC (1.0 = colluders cleanly rank
// below honest peers) and the Gini concentration of the distribution.
func printDistribution(w io.Writer, label string, agg *Aggregate) {
	g := summarizeGroups(agg)
	auc := metrics.SeparationAUC(agg.Config, agg.MeanReputations)
	fmt.Fprintf(w, "%-28s pretrusted %.5f±%.5f | colluders %.5f±%.5f (max %.5f) | normal %.5f±%.5f (max %.5f) | coll/norm %.2fx | AUC %.2f | gini %.2f | share→colluders %.1f%%±%.1f\n",
		label,
		g.Pretrusted.Mean, g.Pretrusted.CI95,
		g.Colluder.Mean, g.Colluder.CI95, g.MaxColluder,
		g.Normal.Mean, g.Normal.CI95, g.MaxNormal,
		ratio(g.Colluder.Mean, g.Normal.Mean),
		auc, metrics.Gini(agg.MeanReputations),
		agg.RequestShare.Mean*100, agg.RequestShare.CI95*100)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
