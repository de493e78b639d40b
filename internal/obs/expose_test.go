package obs

import (
	"os"
	"strings"
	"testing"
)

// TestWriteTextGoldenHelpAndLabels pins the text exposition byte-for-byte on
// a fresh registry: # HELP before # TYPE per family, families sorted by
// name, series within a family sorted by their label sets, and label pairs
// within a series sorted lexically regardless of the order Label composed
// them in. (TestWriteTextGolden covers the help-free baseline format.)
func TestWriteTextGoldenHelpAndLabels(t *testing.T) {
	withEnabled(t, true, func() {
		r := NewRegistry()
		r.Help("jobs_total", "Jobs processed.")
		r.Help("queue_depth", "Pending jobs.")
		r.Help("job_seconds", "Job latency.\nSecond line folds into the first.")

		// Labels deliberately composed out of order: b before a.
		r.Counter(Label(Label("jobs_total", "b", "2"), "a", "1")).Add(3)
		r.Counter(Label("jobs_total", "a", "9")).Add(4)
		r.Counter("errors_total").Add(1) // no help registered
		r.Gauge("queue_depth").Set(7)
		h := r.Histogram(Label("job_seconds", "kind", "batch"), 0.5, 2)
		h.Observe(0.25)
		h.Observe(1)
		h.Observe(5)

		var b strings.Builder
		if err := r.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		want := `# TYPE errors_total counter
errors_total 1
# HELP job_seconds Job latency. Second line folds into the first.
# TYPE job_seconds histogram
job_seconds_bucket{kind="batch",le="0.5"} 1
job_seconds_bucket{kind="batch",le="2"} 2
job_seconds_bucket{kind="batch",le="+Inf"} 3
job_seconds_sum{kind="batch"} 6.25
job_seconds_count{kind="batch"} 3
# HELP jobs_total Jobs processed.
# TYPE jobs_total counter
jobs_total{a="1",b="2"} 3
jobs_total{a="9"} 4
# HELP queue_depth Pending jobs.
# TYPE queue_depth gauge
queue_depth 7
`
		if got := b.String(); got != want {
			t.Fatalf("exposition diverges from golden output:\n--- got ---\n%s--- want ---\n%s", got, want)
		}
	})
}

// TestWriteTextDeterministic pins that two writes of the same registry are
// byte-identical (map iteration order must never leak into the output).
func TestWriteTextDeterministic(t *testing.T) {
	withEnabled(t, true, func() {
		r := NewRegistry()
		for _, shard := range []string{"3", "0", "11", "2"} {
			r.Gauge(Label("mailbox_depth", "shard", shard)).Set(1)
			r.Counter(Label("submits_total", "shard", shard)).Inc()
		}
		var a, b strings.Builder
		if err := r.WriteText(&a); err != nil {
			t.Fatal(err)
		}
		if err := r.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Fatalf("two writes of one registry differ:\n%s\nvs\n%s", a.String(), b.String())
		}
	})
}

// TestSortLabels covers the quote-aware pair splitter.
func TestSortLabels(t *testing.T) {
	cases := [][2]string{
		{``, ``},
		{`a="1"`, `a="1"`},
		{`b="2",a="1"`, `a="1",b="2"`},
		{`b="x,y",a="1"`, `a="1",b="x,y"`}, // comma inside a quoted value
		{`a="1",b="2"`, `a="1",b="2"`},
	}
	for _, c := range cases {
		if got := sortLabels(c[0]); got != c[1] {
			t.Errorf("sortLabels(%q) = %q, want %q", c[0], got, c[1])
		}
	}
}

// TestProcRSS checks the one /proc/<pid>/status reader: this process has a
// resident set no larger than its peak where procfs exists, and a pid that
// names no process reads as zeros.
func TestProcRSS(t *testing.T) {
	if _, err := os.Stat("/proc/self/status"); err == nil {
		rss, peak := ProcRSS(os.Getpid())
		if rss == 0 || peak < rss {
			t.Fatalf("ProcRSS(self) = %d, %d; want 0 < rss <= peak", rss, peak)
		}
	}
	if rss, peak := ProcRSS(-1); rss != 0 || peak != 0 {
		t.Fatalf("ProcRSS(-1) = %d, %d; want zeros", rss, peak)
	}
}
