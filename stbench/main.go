// Command stbench is the repository's benchmark. It measures SocialTrust's
// periodic global update (paper Section 4.3): resource managers absorb a
// rating stream, then the collusion filter computes closeness Ωc (Eq. 2–4)
// and similarity Ωs (Eq. 1/7) for every rated pair before EigenTrust
// iterates. Run it from the root of a checkout:
//
//	bash stbench/run.sh --workload dense --seed 1 --seconds 40 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. The lines before it give
// the environment (commit, Go version, GOOS/GOARCH, nproc, GOMAXPROCS, CPU
// model, seed, the CPU steal share over the run and the time of a reference
// kernel that tracks the host's speed), the digest of the final reputation
// vector, and the sample counts. A failed output check prints correct=false
// and exits 1.
//
// # Method
//
// The benchmark builds the pipeline only through public constructors
// (socialgraph.New, interest.NewSet, eigentrust.New, core.New,
// manager.NewWithOptions, cluster.Spawn) and draws every input from the
// seed, outside the timed regions. One process supplies all load: a single
// closed-loop client goroutine, plus at most two worker processes with one
// connection each. A run is a series of rounds, each of which constructs
// the pipeline, runs the warm-up intervals and then a fixed number of timed
// intervals; rounds repeat until the time budget is spent. Every round
// replays the same inputs, so state sizes do not depend on how fast the
// machine is, set-up is measured once per round, and every round must end
// with the same reputation digest.
//
// Layers are timed from outside: the benchmark reads the clock around each
// SubmitBatch, Query and EndIntervalStatus call, and hands the overlay and
// core.New engines wrapped in timers (timedEngine), so the filter's and
// EigenTrust's Update times are known without a span or counter inside the
// program. drain = EndIntervalStatus − filter Update; adjust = filter
// Update − EigenTrust Update.
//
// Every interval is checked: no SubmitBatch or Query error, no drain with
// a Missing or ReplicaUsed shard, the filter receives exactly the ratings
// submitted, and the reputation vector is finite and sums to 1 within 1e-9.
//
// A traced run (--trace 1) first runs one untraced round as a reference,
// then traced rounds. Those record a span for every call the benchmark makes
// into a layer, one trace per interval, with internal/obs/span so that
// socialtrust-trace reads the export (Query spans are built from the
// benchmark's own timings after the interval). They turn on the program's
// metrics and span recorder to read existing counters and the self times of
// existing spans, and after each interval replay the per-equation kernels
// on that interval's own inputs, outside its spans. The spans are written
// to .bench_build/traces/<workload>-seed<seed>/trace_spans.jsonl when the
// run ends. End-to-end numbers never come from a traced run, and the run
// fails if its traced and untraced rounds disagree on the digest.
//
// # Workloads
//
// Every workload wraps EigenTrust (uniform pretrust, weight 0.5) in the
// SocialTrust filter with 3-hop closeness, over 16 shards, a social graph of
// 6 random friendships per node and 4 interests per node out of 16. Pairs
// of pair-wise colluders (PCM) share no interest and rate each other at
// over ten times the mean pair frequency.
//
// dense: 5k nodes on in-process shards. Every node rates 4 fresh random
// peers per interval, so every pair misses the signal cache and takes the
// cold Ωc/Ωs path; 50 colluder couples rate each other 16 times. This is
// where closeness and similarity changes show: most of its CPU is in
// socialgraph.(*Graph).ClosenessFrom. Ingest is well under 1% of an
// interval, and there is no WAL and no socket.
//
// steady: 50k nodes, a fixed 2% of them active. Each active node rates one
// of its 4 established partners (other active nodes) 90% of the time and a
// random peer 10% of the time; 25 colluder couples sit inside the active
// set. Two new friendships per interval exercise touch-log invalidation.
// The client alternates a 256-rating batch with 1024 closed-loop Query
// calls (4 per rating), and the shards journal to per-shard WALs. This is
// the deployment steady state the incremental engine was built for, the
// only workload with reads beside writes on the shard mailboxes, and the
// only one with an in-process WAL.
//
// bulk-cluster: 10k nodes on an unchanging graph, each rating 4 fixed
// partners 40 times per interval (400k ratings; 50 colluder couples rate
// each other 120 times), sent in 8192-rating batches to 16 shards in 2
// worker processes over unix sockets. The workers keep WALs under the
// default fsync-at-marks policy. The signal caches stay warm, so the
// interval goes to SubmitBatch, the socket codec, the worker WALs, the
// drain's snapshot merge and EigenTrust's dirty-row refresh. The closeness
// kernel does almost no work here, so a change to it should leave this
// workload flat.
//
// # Metrics
//
// End-to-end, on every workload: setup_s (median over the run's rounds of
// construction, worker spawn and the warm-up intervals that fill the signal
// caches and the EigenTrust CSR; input generation excluded), update_s
// (median EndIntervalStatus wall time), ratings_per_s (median over
// intervals of the interval's ratings ÷ its SubmitBatch + EndIntervalStatus
// time), peak_rss_mb (median over rounds of this process's peak resident
// set, the kernel's VmHWM re-armed through /proc/self/clear_refs at the start
// of each round), alloc_mb_per_interval (bytes this process allocates per
// timed interval), colluder_rep_share (the colluders' share
// of the final reputation vector), shrink_precision and shrink_recall
// (flagged pairs, LastReport().Adjusted, against the injected colluder
// pairs).
// Every end-to-end metric is defined, and never zero, on every workload.
// Numbers that exist on one workload only are reported with their layer in
// the traced run: query latency (manager.query_p50_us and query_p99_us, on
// steady), socket ingest rate (manager.ingest_ratings_per_s, on
// bulk-cluster) and worker memory (cluster.worker_peak_rss_mb). Failed
// operations are the result's failed count rather than a metric, since a
// correct run has none.
//
// Per-layer times and counts are per timed interval. Each layer, and the
// end-to-end metric it should move on which workload:
//
//   - manager: submit_s moves ratings_per_s on bulk-cluster; query_s and the
//     query percentiles are steady's read path; drain_s moves update_s on
//     bulk-cluster, where it is most of the update, and is a few percent on
//     dense.
//   - core: adjust_s and the self times of the adjust.* and core.absorb
//     spans move update_s on dense (its largest layer) and steady; the
//     signal cache hit ratio tells those two apart.
//   - socialgraph: closeness_us_per_pair moves update_s on dense and steady;
//     no change is predicted on bulk-cluster.
//   - interest: similarity_ns_per_pair moves update_s on dense.
//   - rating: the ledger's add and drain cost per rating move ratings_per_s
//     and update_s on bulk-cluster.
//   - eigentrust: update_s, iterations, skip ratio, CSR rebuilds and the
//     fold span move update_s on dense (the matrix shape changes every
//     interval) and on bulk-cluster (mostly values change).
//   - cluster: wire bytes per rating and reconnects move ratings_per_s and
//     update_s on bulk-cluster only.
//   - persist: WAL bytes per rating and fsync time move ratings_per_s on
//     steady and bulk-cluster.
//   - runtime: GC cycles and pauses, CPU per interval and steal move
//     alloc_mb_per_interval and peak_rss_mb, and update_s on dense and
//     steady, where GC takes a tenth of the CPU.
//   - trace: coverage and the tracing overhead on update_s. Coverage is the
//     share of the interval wall time that the program's own outermost
//     spans (those whose parent is a benchmark span) and the Query calls
//     account for; the benchmark's own overhead and program code outside
//     any span stay uncovered, so a fall means time has moved out of the
//     instrumented layers.
//
// # Why ingest and construction alone are not end-to-end metrics
//
// Measured on 2 vCPUs (Go 1.24, GOMAXPROCS 2, about 2% steal): in-process
// ingest of 21.6k ratings took 4–16 ms per interval, so one run's intervals
// read 1.2–5.8 M ratings/s and run totals 3.3–4.8 M; even 100–200 ms ingest
// windows read 1.5–4.1 M. Over sockets ingest read 1.39–1.57 M across six
// runs. Construction alone took 0.035–0.105 s at 5k nodes; with the warm-up
// intervals set-up read 0.97–1.21 s on dense. Allocation per interval and
// the quality metrics repeat exactly per seed. Random new friendships
// measure the full-invalidation fallback rather than the incremental path
// (a 3-hop radius in a degree-12 random graph covers most of 50k nodes), so
// steady adds two per interval: twenty took its update from 0.26 s to
// 0.61–0.73 s.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"socialtrust/internal/cluster"
	"socialtrust/internal/obs"
	"socialtrust/internal/obs/span"
)

func main() {
	cluster.WorkerMainIfChild() // cluster.Spawn re-executes this binary as a worker
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("stbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: dense, steady or bulk-cluster")
	seed := fs.Uint64("seed", 1, "seed the inputs are drawn from")
	seconds := fs.Float64("seconds", 40, "time budget of the run in seconds")
	trace := fs.Int("trace", 0, "0 prints the end-to-end metrics, 1 runs traced and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "stbench: need --workload dense|steady|bulk-cluster, --trace 0|1 and positive --seconds\n")
		return 2
	}
	return execute(w, config{seed: *seed, seconds: *seconds, traced: *trace == 1, outDir: ".bench_build"}, stdout, stderr)
}

// metricDef names a printed metric and its unit.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"update_s", "s"},
	{"ratings_per_s", "1/s"},
	{"peak_rss_mb", "MiB"},
	{"alloc_mb_per_interval", "MiB"},
	{"colluder_rep_share", "ratio"},
	{"shrink_precision", "ratio"},
	{"shrink_recall", "ratio"},
}

var perLayer = []metricDef{
	{"manager.submit_s", "s"},
	{"manager.submit_calls", "count"},
	{"manager.query_s", "s"},
	{"manager.queries", "count"},
	{"manager.drain_s", "s"},
	{"manager.failed_ops", "count"},
	{"manager.ingest_ratings_per_s", "1/s"},
	{"manager.query_p50_us", "us"},
	{"manager.query_p99_us", "us"},
	{"core.adjust_s", "s"},
	{"core.pairs", "count"},
	{"core.flagged_pairs", "count"},
	{"core.pairs_skipped", "count"},
	{"core.signal_cache_hit_ratio", "ratio"},
	{"core.adjust_signals_s", "s"},
	{"core.adjust_baseline_s", "s"},
	{"core.adjust_classify_s", "s"},
	{"core.adjust_merge_s", "s"},
	{"core.adjust_rewrite_s", "s"},
	{"core.absorb_s", "s"},
	{"socialgraph.closeness_us_per_pair", "us"},
	{"interest.similarity_ns_per_pair", "ns"},
	{"interest.weighted_similarity_ns_per_pair", "ns"},
	{"rating.add_batch_ns_per_rating", "ns"},
	{"rating.end_interval_ns_per_rating", "ns"},
	{"eigentrust.update_s", "s"},
	{"eigentrust.iterations", "count"},
	{"eigentrust.skip_ratio", "ratio"},
	{"eigentrust.csr_rebuilds", "count"},
	{"eigentrust.fold_s", "s"},
	{"cluster.wire_bytes_per_rating", "B"},
	{"cluster.reconnects", "count"},
	{"cluster.worker_peak_rss_mb", "MiB"},
	{"persist.wal_bytes_per_rating", "B"},
	{"persist.fsync_s", "s"},
	{"runtime.gc_cycles_per_interval", "count"},
	{"runtime.gc_pause_s", "s"},
	{"runtime.cpu_s_per_interval", "s"},
	{"runtime.steal_pct", "%"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_pct", "%"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// execute runs one workload and prints the environment, the digest, the
// sample counts and the result line. It returns the exit code.
func execute(w workload, cfg config, stdout, stderr io.Writer) int {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "stbench:", err)
		return 1
	}
	stat0 := readCPUStat()
	b := &bench{cfg: cfg, start: time.Now(), ref: newHostRef()}
	b.in = newInputs(w, cfg.seed)
	rounds, err := b.run()
	if cfg.traced {
		span.Disable()
		obs.SetEnabled(false)
	}
	steal := stealShare(stat0, readCPUStat())
	printJSON(stdout, "env", environment(w, cfg, steal, median(b.refMS)))
	if err == nil {
		err = agree(rounds)
	}
	res := result{Correct: err == nil, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	if err != nil {
		fmt.Fprintln(stderr, "stbench:", err)
		printJSON(stdout, "", res)
		return 1
	}
	fmt.Fprintf(stdout, "digest %s seed=%d %s\n", w.name, cfg.seed, rounds[0].digest)
	var values map[string]float64
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
		values = b.layers.metrics(rounds, steal)
		if err := b.layers.export(filepath.Join(cfg.outDir, "traces", fmt.Sprintf("%s-seed%d", w.name, cfg.seed))); err != nil {
			fmt.Fprintln(stderr, "stbench: trace export:", err)
			return 1
		}
	} else {
		values = endToEndValues(rounds)
	}
	fmt.Fprintln(stdout, samples(rounds))
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "stbench: metric %s is %v\n", d.name, v)
			res.Correct = false
			v = 0
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	printJSON(stdout, "", res)
	if !res.Correct {
		return 1
	}
	return 0
}

// agree checks that every round ended with the same reputation vector.
func agree(rounds []*round) error {
	for _, r := range rounds[1:] {
		if r.digest != rounds[0].digest {
			kind := "rounds"
			if r.traced != rounds[0].traced {
				kind = "traced and untraced rounds"
			}
			return fmt.Errorf("%s disagree: reputation digest %s vs %s", kind, r.digest, rounds[0].digest)
		}
	}
	return nil
}

// endToEndValues computes the end-to-end metrics of an untraced run.
func endToEndValues(rounds []*round) map[string]float64 {
	var setups, updates, rates, rss []float64
	var intervals int
	var alloc uint64
	for _, r := range rounds {
		setups = append(setups, r.setup.Seconds())
		rss = append(rss, r.peakRSS)
		for _, s := range r.steps {
			updates = append(updates, s.end.Seconds())
			rates = append(rates, float64(s.ratings)/(s.submit+s.end).Seconds())
			intervals++
		}
		alloc += r.alloc
	}
	r := rounds[0]
	return map[string]float64{
		"setup_s":               median(setups),
		"update_s":              median(updates),
		"ratings_per_s":         median(rates),
		"peak_rss_mb":           median(rss),
		"alloc_mb_per_interval": float64(alloc) / float64(intervals) / (1 << 20),
		"colluder_rep_share":    r.share,
		"shrink_precision":      ratio(r.truePos, r.flagged),
		"shrink_recall":         ratio(r.truePos, r.colluding),
	}
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// samples describes the sample counts behind the medians, with the
// quartiles of the update times.
func samples(rounds []*round) string {
	var updates []float64
	var traced int
	for _, r := range rounds {
		if r.traced {
			traced++
		}
		for _, s := range r.steps {
			updates = append(updates, s.end.Seconds())
		}
	}
	line := fmt.Sprintf("samples rounds=%d traced_rounds=%d intervals=%d", len(rounds), traced, len(updates))
	if q1, q2, q3, err := quartiles(updates); err == nil {
		line += fmt.Sprintf(" update_s q1=%.4f median=%.4f q3=%.4f", q1, q2, q3)
	}
	return line
}

// env is the environment block printed with every result.
type env struct {
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu"`
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Traced     bool    `json:"traced"`
	StealShare float64 `json:"steal_share"`
	HostRefMS  float64 `json:"host_ref_ms"` // median time of the reference kernel, see hostRef
}

func environment(w workload, cfg config, steal, hostRefMS float64) env {
	e := env{
		Commit: "unknown", Go: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: cpuModel(),
		Workload: w.name, Seed: cfg.seed, Traced: cfg.traced, StealShare: steal, HostRefMS: hostRefMS,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty {
			e.Commit += "-dirty"
		}
	}
	return e
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuStat is the aggregate CPU line of /proc/stat: total and steal jiffies.
type cpuStat struct{ total, steal uint64 }

func readCPUStat() cpuStat {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var st cpuStat
	for i := 1; i < len(f) && i <= 8; i++ { // user … steal; guest time is already in user
		v, _ := strconv.ParseUint(f[i], 10, 64) // a malformed field counts as zero
		st.total += v
		if i == 8 {
			st.steal = v
		}
	}
	return st
}

// stealShare is the share of CPU time the hypervisor took between a and b.
func stealShare(a, b cpuStat) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

func printJSON(w io.Writer, prefix string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and finite floats are printed
	}
	if prefix != "" {
		fmt.Fprintf(w, "%s %s\n", prefix, b)
		return
	}
	fmt.Fprintf(w, "%s\n", b)
}
