// Command socialtrust-trace analyzes the interval trace of a traced
// simulation run (socialtrust-sim -trace-dir, stress -trace, or any program
// setting SimConfig.TraceDir): it rolls the hierarchical span stream up into
// a per-interval phase-attribution table, extracts each interval's critical
// path, and ranks span sites by aggregate self time.
//
//	socialtrust-trace <dir | spans.jsonl>       # phase table, critical paths, top-k
//	socialtrust-trace -topk 5 <input>           # shorter self-time ranking
//	socialtrust-trace -critical=false <input>   # suppress per-interval paths
//	socialtrust-trace -json <input>             # phase summary JSON on stdout
//	socialtrust-trace -diff <a> <b>             # A/B phase comparison
//	socialtrust-trace -diff -threshold 0.1 a b  # stricter regression gate
//
// Inputs compose across formats: a trace/audit directory (trace_spans.jsonl
// inside it), a bare span JSONL file, or — for -diff — a phase summary JSON
// as emitted by -json (the schema of baselines/trace-2k.json). Diff mode
// compares the mean per-interval phase seconds of two inputs and exits
// nonzero when any phase of B is slower than A by more than -threshold
// (relative, with a 1 ms absolute floor so micro-runs don't flag on noise).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"socialtrust"
)

func main() {
	var (
		topk      = flag.Int("topk", 10, "how many span sites to rank by aggregate self time")
		critical  = flag.Bool("critical", true, "print each interval's critical path")
		asJSON    = flag.Bool("json", false, "emit the phase summary as JSON (the schema of baselines/trace-2k.json)")
		diff      = flag.Bool("diff", false, "compare two inputs: socialtrust-trace -diff <a> <b>")
		threshold = flag.Float64("threshold", 0.2, "relative slowdown in any phase mean that fails -diff")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: socialtrust-trace [flags] <dir|spans.jsonl>\n"+
				"       socialtrust-trace -diff [-threshold r] <a> <b>\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *diff {
		if flag.NArg() != 2 {
			flag.Usage()
			os.Exit(2)
		}
		a, err := loadSummary(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		b, err := loadSummary(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !printDiff(os.Stdout, flag.Arg(0), a, flag.Arg(1), b, *threshold) {
			os.Exit(1)
		}
		return
	}

	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	spans, err := loadSpans(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	if len(spans) == 0 {
		fatal(fmt.Errorf("%s holds no spans (was the run traced?)", flag.Arg(0)))
	}
	sum := summarize(spans)

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sum); err != nil {
			fatal(err)
		}
		return
	}

	printPhaseTable(sum)
	if *critical {
		fmt.Println()
		printCriticalPaths(os.Stdout, spans)
	}
	fmt.Println()
	printSelfTime(spans, *topk)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "socialtrust-trace: %v\n", err)
	os.Exit(1)
}

// summary is the phase-attribution rollup of one trace — the schema of
// -json output and of the committed baselines/trace-2k.json.
type summary struct {
	Intervals    int                            `json:"intervals"`
	PhasesMean   map[string]float64             `json:"phases_mean_seconds"`
	CoverageMean float64                        `json:"coverage_mean"`
	PerInterval  []socialtrust.TraceAttribution `json:"per_interval,omitempty"`
}

// loadSpans reads a span stream from a trace/audit directory or a bare
// JSONL file.
func loadSpans(path string) ([]socialtrust.TraceSpan, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if st.IsDir() {
		spans, err := socialtrust.LoadTraceDir(path)
		if err != nil {
			return nil, err
		}
		if spans == nil {
			return nil, fmt.Errorf("%s holds no trace (was the run traced?)", path)
		}
		return spans, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return socialtrust.ReadTraceSpans(f)
}

// loadSummary loads a phase summary from any accepted input: a directory or
// span JSONL (summarized on the fly), or a summary JSON written by -json.
func loadSummary(path string) (summary, error) {
	st, err := os.Stat(path)
	if err != nil {
		return summary{}, err
	}
	if !st.IsDir() {
		b, err := os.ReadFile(path)
		if err != nil {
			return summary{}, err
		}
		if t := bytes.TrimLeft(b, " \t\r\n"); len(t) > 0 && t[0] == '{' {
			var s summary
			if err := json.Unmarshal(b, &s); err == nil && s.PhasesMean != nil {
				return s, nil
			}
		}
	}
	spans, err := loadSpans(path)
	if err != nil {
		return summary{}, err
	}
	if len(spans) == 0 {
		return summary{}, fmt.Errorf("%s holds no spans (was the run traced?)", path)
	}
	return summarize(spans), nil
}

func summarize(spans []socialtrust.TraceSpan) summary {
	atts := socialtrust.AttributeTrace(spans)
	s := summary{
		Intervals:   len(atts),
		PhasesMean:  map[string]float64{},
		PerInterval: atts,
	}
	if len(atts) == 0 {
		return s
	}
	var cov float64
	for _, a := range atts {
		s.PhasesMean["ingest"] += a.Ingest
		s.PhasesMean["drain"] += a.Drain
		s.PhasesMean["adjust"] += a.Adjust
		s.PhasesMean["iterate"] += a.Iterate
		s.PhasesMean["other"] += a.Other()
		s.PhasesMean["total"] += a.Total
		cov += a.Coverage()
	}
	n := float64(len(atts))
	for k := range s.PhasesMean {
		s.PhasesMean[k] /= n
	}
	s.CoverageMean = cov / n
	return s
}

func printPhaseTable(s summary) {
	fmt.Printf("%-9s %10s %10s %10s %10s %10s %10s %9s\n",
		"interval", "total", "ingest", "drain", "adjust", "iterate", "other", "coverage")
	for i, a := range s.PerInterval {
		fmt.Printf("%-9d %10.4f %10.4f %10.4f %10.4f %10.4f %10.4f %8.1f%%\n",
			i+1, a.Total, a.Ingest, a.Drain, a.Adjust, a.Iterate, a.Other(), 100*a.Coverage())
	}
	fmt.Printf("%-9s %10.4f %10.4f %10.4f %10.4f %10.4f %10.4f %8.1f%%\n",
		"mean", s.PhasesMean["total"], s.PhasesMean["ingest"], s.PhasesMean["drain"],
		s.PhasesMean["adjust"], s.PhasesMean["iterate"], s.PhasesMean["other"],
		100*s.CoverageMean)
}

// printCriticalPaths walks each trace from its root, descending at every
// step into the heaviest child — the interval pipeline is sequential, so
// the longest-duration chain is the path that dominated the interval's wall
// time — and prints the path with each hop's duration and self time. The
// walk stops at a span whose ID is already on the path, which only a
// malformed file (a span reusing an ancestor's ID) can produce.
func printCriticalPaths(w io.Writer, spans []socialtrust.TraceSpan) {
	byTrace := map[uint64][]socialtrust.TraceSpan{}
	var order []uint64
	for _, sp := range spans {
		if _, ok := byTrace[sp.Trace]; !ok {
			order = append(order, sp.Trace)
		}
		byTrace[sp.Trace] = append(byTrace[sp.Trace], sp)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	fmt.Fprintln(w, "critical paths (slowest child chain per interval):")
	for i, tr := range order {
		ts := byTrace[tr]
		children := map[uint64][]socialtrust.TraceSpan{}
		var root socialtrust.TraceSpan
		haveRoot := false
		for _, sp := range ts {
			children[sp.Parent] = append(children[sp.Parent], sp)
			if sp.Parent == 0 && (!haveRoot || sp.DurUS > root.DurUS) {
				root, haveRoot = sp, true
			}
		}
		if !haveRoot {
			continue // ring wraparound evicted this trace's root
		}
		fmt.Fprintf(w, "  interval %d:\n", i+1)
		onPath := map[uint64]bool{}
		for cur, depth := root, 0; ; depth++ {
			onPath[cur.ID] = true
			self := cur.DurUS
			var next socialtrust.TraceSpan
			haveNext := false
			for _, c := range children[cur.ID] {
				self -= c.DurUS
				if !haveNext || c.DurUS > next.DurUS {
					next, haveNext = c, true
				}
			}
			if self < 0 {
				self = 0
			}
			fmt.Fprintf(w, "    %s%-28s %10.4fs  self %8.4fs\n",
				strings.Repeat("  ", depth), cur.Name,
				float64(cur.DurUS)/1e6, float64(self)/1e6)
			if !haveNext || onPath[next.ID] {
				break
			}
			cur = next
		}
	}
}

// printSelfTime ranks span sites (by name) by aggregate self time — each
// span's duration minus its children's, clamped at zero.
func printSelfTime(spans []socialtrust.TraceSpan, k int) {
	childDur := map[uint64]int64{}
	for _, sp := range spans {
		if sp.Parent != 0 {
			childDur[sp.Parent] += sp.DurUS
		}
	}
	type site struct {
		name  string
		count int
		self  int64
	}
	agg := map[string]*site{}
	for _, sp := range spans {
		self := sp.DurUS - childDur[sp.ID]
		if self < 0 {
			self = 0
		}
		s := agg[sp.Name]
		if s == nil {
			s = &site{name: sp.Name}
			agg[sp.Name] = s
		}
		s.count++
		s.self += self
	}
	sites := make([]*site, 0, len(agg))
	for _, s := range agg {
		sites = append(sites, s)
	}
	sort.Slice(sites, func(i, j int) bool {
		if sites[i].self != sites[j].self {
			return sites[i].self > sites[j].self
		}
		return sites[i].name < sites[j].name
	})
	if k > len(sites) {
		k = len(sites)
	}
	fmt.Printf("top %d span sites by aggregate self time:\n", k)
	fmt.Printf("  %-28s %8s %12s %12s\n", "name", "spans", "self", "mean")
	for _, s := range sites[:k] {
		fmt.Printf("  %-28s %8d %11.4fs %11.6fs\n",
			s.name, s.count, float64(s.self)/1e6, float64(s.self)/1e6/float64(s.count))
	}
}

// printDiff compares the mean per-interval phase seconds of two inputs and
// reports true when no phase of b regressed past the threshold. A phase
// regresses when its mean grows by more than threshold relative to a AND by
// more than 1 ms absolute.
func printDiff(w *os.File, nameA string, a summary, nameB string, b summary, threshold float64) bool {
	const absFloor = 1e-3
	phases := []string{"total", "ingest", "drain", "adjust", "iterate", "other"}
	fmt.Fprintf(w, "phase mean comparison (A=%s intervals=%d, B=%s intervals=%d):\n",
		nameA, a.Intervals, nameB, b.Intervals)
	fmt.Fprintf(w, "  %-9s %12s %12s %10s %s\n", "phase", "A", "B", "delta", "verdict")
	ok := true
	for _, p := range phases {
		av, bv := a.PhasesMean[p], b.PhasesMean[p]
		delta := bv - av
		rel := 0.0
		if av > 0 {
			rel = delta / av
		}
		verdict := "ok"
		switch {
		case delta > absFloor && (av == 0 || rel > threshold):
			verdict = "REGRESSION"
			ok = false
		case delta < -absFloor && av > 0 && -rel > threshold:
			verdict = "improved"
		}
		fmt.Fprintf(w, "  %-9s %11.4fs %11.4fs %+9.1f%% %s\n", p, av, bv, 100*rel, verdict)
	}
	fmt.Fprintf(w, "  coverage  %11.1f%% %11.1f%%\n", 100*a.CoverageMean, 100*b.CoverageMean)
	if ok {
		fmt.Fprintln(w, "no phase regression beyond threshold")
	} else {
		fmt.Fprintf(w, "phase regression beyond %.0f%% threshold\n", 100*threshold)
	}
	return ok
}
