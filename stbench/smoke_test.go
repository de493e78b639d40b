package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"socialtrust/internal/cluster"
	"socialtrust/internal/obs/span"
)

// TestMain lets cluster.Spawn re-execute the test binary as a worker.
func TestMain(m *testing.M) {
	cluster.WorkerMainIfChild()
	os.Exit(m.Run())
}

// tiny shrinks a workload to a second or two of work while keeping its
// shape: the same layers, traffic kinds, WALs and worker processes.
func tiny(w workload) workload {
	w.nodes /= 25
	w.raters = max(w.raters/25, 40)
	w.couples = 4
	w.warmup = 1
	w.intervals = 2
	w.queries = min(w.queries, 16)
	return w
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// spec reads the metric lists the repository's BENCHMARK.json declares.
func spec(t *testing.T) (endToEnd, perLayer []specMetric) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s struct {
		EndToEnd []specMetric `json:"end_to_end"`
		PerLayer []specMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s.EndToEnd, s.PerLayer
}

func TestDeclaredMetricsMatchPrinted(t *testing.T) {
	e2e, layer := spec(t)
	for _, c := range []struct {
		declared []specMetric
		printed  []metricDef
	}{{e2e, endToEnd}, {layer, perLayer}} {
		if len(c.declared) != len(c.printed) {
			t.Fatalf("BENCHMARK.json declares %d metrics, the benchmark prints %d", len(c.declared), len(c.printed))
		}
		for i, d := range c.printed {
			if c.declared[i] != (specMetric{d.name, d.unit}) {
				t.Errorf("metric %d: BENCHMARK.json has %v, the benchmark %v", i, c.declared[i], d)
			}
		}
	}
}

// TestSmoke runs every workload at a tiny size, untraced and traced with
// the same seed, and checks the result line: correct, every declared metric
// printed with its unit, finite, and the end-to-end ones nonzero; the two
// runs print the same reputation digest and an environment line; the traced
// run exports its spans.
func TestSmoke(t *testing.T) {
	e2e, layer := spec(t)
	for name, w := range workloads {
		t.Run(name, func(t *testing.T) {
			w := tiny(w)
			dir := t.TempDir()
			var digests [2]string
			for trace, declared := range [][]specMetric{e2e, layer} {
				var out, errb bytes.Buffer
				cfg := config{seed: 7, seconds: 0.001, traced: trace == 1, outDir: dir}
				if code := execute(w, cfg, &out, &errb); code != 0 {
					t.Fatalf("trace=%d exit %d: %s", trace, code, errb.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v", err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("trace=%d: correct=%v attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(declared) {
					t.Errorf("trace=%d: %d metrics printed, %d declared", trace, len(res.Metrics), len(declared))
				}
				for _, d := range declared {
					m, ok := res.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("trace=%d: %s not printed", trace, d.Name)
					case m.Unit != d.Unit:
						t.Errorf("trace=%d: %s unit %q, declared %q", trace, d.Name, m.Unit, d.Unit)
					case trace == 0 && m.Value <= 0:
						t.Errorf("%s = %v, want > 0", d.Name, m.Value)
					}
				}
				for _, l := range lines {
					if strings.HasPrefix(l, "digest ") {
						digests[trace] = l
					}
					if js, ok := strings.CutPrefix(l, "env "); ok {
						var e env
						if err := json.Unmarshal([]byte(js), &e); err != nil || e.Seed != 7 || e.HostRefMS <= 0 {
							t.Errorf("trace=%d: env line %q: %v", trace, js, err)
						}
					}
				}
			}
			if digests[0] == "" || digests[0] != digests[1] {
				t.Errorf("untraced and traced digests differ: %q vs %q", digests[0], digests[1])
			}
			f, err := os.Open(filepath.Join(dir, "traces", w.name+"-seed7", "trace_spans.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			spans, err := span.ReadJSONL(f)
			if err != nil || len(spans) == 0 {
				t.Errorf("trace export: %d spans, %v", len(spans), err)
			}
		})
	}
}
