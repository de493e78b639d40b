package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"syscall"
	"time"

	"socialtrust/internal/cluster"
	"socialtrust/internal/interest"
	"socialtrust/internal/obs"
	"socialtrust/internal/obs/span"
	"socialtrust/internal/rating"
	"socialtrust/internal/socialgraph"
)

// config is one run's settings.
type config struct {
	seed    uint64
	seconds float64
	traced  bool
	outDir  string // state directories and the trace export live here
}

// bench is one run of one workload.
type bench struct {
	cfg       config
	start     time.Time // the run's time budget counts from here
	in        *inputs
	buf       []rating.Rating // reused interval trace buffer
	layers    *layers         // the traced rounds' measurements
	ref       *hostRef
	refMS     []float64 // reference kernel times, taken between rounds
	attempted int       // ratings, queries and drains, warm-up included
	failed    int
}

// round is one construction of the pipeline, its warm-up intervals and its
// timed intervals. Every round of a run replays the same inputs, so every
// round must end with the same reputation vector.
type round struct {
	traced    bool
	setup     time.Duration
	duration  time.Duration // whole round, generation and checks included
	steps     []step
	alloc     uint64 // bytes allocated during the timed intervals
	digest    string
	share     float64 // colluders' share of the final reputation vector
	truePos   int     // flagged colluder pairs, summed over timed intervals
	flagged   int
	colluding int     // colluder pairs rated, summed over timed intervals
	peakRSS   float64 // MiB, the kernel's peak resident set over the round
	workerRSS float64
}

// run executes rounds until the time budget is spent: at least one round,
// and in a traced run one untraced reference round followed by at least one
// traced round.
func (b *bench) run() ([]*round, error) {
	var rounds []*round
	minRounds := 1
	if b.cfg.traced {
		minRounds = 2
	}
	for {
		traced := b.cfg.traced && len(rounds) > 0
		if traced && b.layers == nil {
			b.layers = newLayers(b.in.w)
			obs.Enable()
			span.Enable(span.DefaultCapacity)
		}
		r, err := b.round(traced)
		if err != nil {
			return rounds, err
		}
		rounds = append(rounds, r)
		// Free the finished round's pipeline before the next one is built,
		// so each round starts from the same heap.
		runtime.GC()
		debug.FreeOSMemory()
		for k := 0; k < 3; k++ {
			b.refMS = append(b.refMS, b.ref.time())
		}
		left := b.cfg.seconds - time.Since(b.start).Seconds()
		if len(rounds) >= minRounds && left < r.duration.Seconds() {
			return rounds, nil
		}
	}
}

func (b *bench) round(traced bool) (_ *round, err error) {
	begin := time.Now()
	w := b.in.w
	dir, err := os.MkdirTemp(b.cfg.outDir, "state-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &round{traced: traced}
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	defer func() { r.peakRSS = cluster.SelfPeakRSSMB() }()
	var seq uint64
	t0 := time.Now()
	p, err := build(b.in, dir)
	if err != nil {
		return nil, err
	}
	r.setup = time.Since(t0)
	defer func() {
		if cerr := p.close(); cerr != nil && err == nil {
			err = fmt.Errorf("close: %w", cerr)
		}
	}()
	for t := 0; t < w.warmup; t++ {
		iv := b.in.interval(t, &seq, b.buf)
		b.buf = iv.trace
		s, err := p.run(iv)
		b.attempted += s.attempts
		b.failed += s.failed
		if err != nil {
			return nil, fmt.Errorf("warm-up interval %d: %w", t, err)
		}
		r.setup += s.wall
	}
	if rec := span.Current(); rec != nil {
		rec.Drain() // set-up spans are not part of the export
	}
	var reps []float64
	var m0, m1 runtime.MemStats
	for k := 0; k < w.intervals; k++ {
		t := w.warmup + k
		iv := b.in.interval(t, &seq, b.buf)
		b.buf = iv.trace
		var c0 counters
		if traced {
			c0 = readCounters()
		}
		runtime.ReadMemStats(&m0)
		cpu0 := cpuTime()
		s, err := p.run(iv)
		cpu := cpuTime() - cpu0
		runtime.ReadMemStats(&m1)
		b.attempted += s.attempts
		b.failed += s.failed
		if err != nil {
			return nil, fmt.Errorf("interval %d: %w", t, err)
		}
		r.alloc += m1.TotalAlloc - m0.TotalAlloc
		rep := p.filter.LastReport()
		for _, a := range rep.Adjusted {
			if b.in.couple(a.Pair.Rater, a.Pair.Ratee) {
				r.truePos++
			}
		}
		r.flagged += len(rep.Adjusted)
		r.colluding += 2 * len(b.in.couples)
		if traced {
			b.layers.add(p, s, readCounters().sub(c0), len(rep.Adjusted), cpu,
				m1.NumGC-m0.NumGC, time.Duration(m1.PauseTotalNs-m0.PauseTotalNs))
			if err := b.layers.replay(p, iv.trace); err != nil {
				return nil, fmt.Errorf("interval %d replay: %w", t, err)
			}
		}
		reps = s.reps
		s.reps, s.queryLat, s.queryAt = nil, nil, nil
		r.steps = append(r.steps, s)
	}
	r.digest = digest(reps)
	for i, v := range reps {
		if b.in.colluder[i] {
			r.share += v
		}
	}
	if p.procs != nil {
		r.workerRSS = p.procs.WorkerPeakRSSMB()
	}
	if traced {
		b.layers.walBytes += p.stateBytes()
		b.layers.journaled += seq
	}
	r.duration = time.Since(begin)
	return r, nil
}

// couple reports whether rater→ratee is an injected colluder pair.
func (in *inputs) couple(rater, ratee int) bool {
	for _, c := range in.couples {
		if (c[0] == rater && c[1] == ratee) || (c[1] == rater && c[0] == ratee) {
			return true
		}
	}
	return false
}

// counters are the program's existing metrics the traced run reads.
type counters struct {
	hits, misses, skipped, rebuilds int64
	reconnects, sent, received      int64
	fsync                           float64
}

func readCounters() counters {
	sent, received := cluster.WireStats()
	return counters{
		hits:       obs.C("signal_cache_hits_total").Value(),
		misses:     obs.C("signal_cache_misses_total").Value(),
		skipped:    obs.C("socialtrust_pairs_skipped_total").Value(),
		rebuilds:   obs.C("eigentrust_csr_rebuilds_total").Value(),
		reconnects: obs.C("cluster_reconnects_total").Value(),
		sent:       sent,
		received:   received,
		fsync:      obs.H("persist_wal_fsync_seconds").Sum(),
	}
}

func (c counters) sub(o counters) counters {
	return counters{
		hits: c.hits - o.hits, misses: c.misses - o.misses, skipped: c.skipped - o.skipped,
		rebuilds: c.rebuilds - o.rebuilds, reconnects: c.reconnects - o.reconnects,
		sent: c.sent - o.sent, received: c.received - o.received, fsync: c.fsync - o.fsync,
	}
}

// cpuTime is the user plus system CPU time of this process.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxClosenessReplay bounds the pairs the closeness replay covers per
// interval.
const maxClosenessReplay = 4096

// layers accumulates the traced rounds' per-layer measurements.
type layers struct {
	w              workload
	intervals      int
	ratings        int
	wall           time.Duration
	submit         time.Duration
	submits        int
	query          time.Duration
	queryLat       []float64
	drain          time.Duration
	adjust         time.Duration
	eigen          time.Duration
	failed         int
	flagged        int
	c              counters
	iters          int
	skips          int
	cpu            time.Duration
	gcCycles       uint32
	gcPause        time.Duration
	spanSelf       map[string]float64
	covered        time.Duration // program span time, see covered
	spans          []span.Span
	queryIDs       uint64
	tracker        *interest.Tracker
	closeness      time.Duration
	similar        time.Duration
	weighted       time.Duration
	replayed       int // distinct pairs of the traced intervals
	closenessPairs int // pairs the closeness replay covered
	addBatch       time.Duration
	endLedger      time.Duration
	ledgered       int // ratings replayed
	walBytes       int64
	journaled      uint64 // ratings submitted in the traced rounds, warm-up included
	sink           float64
}

func newLayers(w workload) *layers {
	return &layers{w: w, spanSelf: map[string]float64{}, tracker: interest.NewTracker(w.nodes)}
}

// add folds one traced interval in: the benchmark's clock readings around each
// call, the program's counters and the self times of its spans.
func (l *layers) add(p *pipeline, s step, c counters, flagged int, cpu time.Duration, gc uint32, pause time.Duration) {
	l.intervals++
	l.ratings += s.ratings
	l.wall += s.wall
	l.submit += s.submit
	l.submits += s.submits
	l.query += s.query
	l.queryLat = append(l.queryLat, s.queryLat...)
	l.drain += s.end - s.core
	l.adjust += s.core - s.eigen
	l.eigen += s.eigen
	l.failed += s.failed
	l.flagged += flagged
	l.c = l.c.plus(c)
	st := p.et.Stats()
	l.iters += st.Iterations
	if st.Skipped {
		l.skips++
	}
	l.cpu += cpu
	l.gcCycles += gc
	l.gcPause += pause
	spans := span.Current().Drain()
	for name, v := range selfTimes(spans) {
		l.spanSelf[name] += v
	}
	l.covered += covered(spans)
	l.spans = append(l.spans, spans...)
	for _, root := range spans {
		if root.Name == "bench.interval" {
			l.querySpans(root, s)
		}
	}
}

// querySpans adds a span per Query call under the interval's root span.
// They are built from the benchmark's own timings after the interval instead
// of being recorded live: at 20k queries an interval, the recording alone
// left 2% of the interval's wall time outside every layer. The root span
// starts immediately before the benchmark's interval clock, so offsets from
// that clock place the queries on the recorder's timeline.
func (l *layers) querySpans(root span.Span, s step) {
	for k, at := range s.queryAt {
		l.queryIDs++
		l.spans = append(l.spans, span.Span{
			Trace:   root.Trace,
			ID:      1<<63 | l.queryIDs, // disjoint from the recorder's IDs
			Parent:  root.ID,
			Name:    "manager.Query",
			Phase:   span.PhaseIngest,
			StartUS: root.StartUS + at.Microseconds(),
			DurUS:   int64(math.Round(s.queryLat[k])),
		})
	}
}

func (c counters) plus(o counters) counters {
	return counters{
		hits: c.hits + o.hits, misses: c.misses + o.misses, skipped: c.skipped + o.skipped,
		rebuilds: c.rebuilds + o.rebuilds, reconnects: c.reconnects + o.reconnects,
		sent: c.sent + o.sent, received: c.received + o.received, fsync: c.fsync + o.fsync,
	}
}

// replay times the per-equation kernels on the interval's own inputs, after
// the interval and outside its spans: Ωc by Graph.ClosenessFrom per rater
// (Eq. 2–4), Ωs by Similarity (Eq. 1/7) and WeightedSimilarity (Eq. 11) per
// pair, and a fresh rating ledger's AddBatch and EndInterval over the trace.
func (l *layers) replay(p *pipeline, trace []rating.Rating) error {
	pairs := make([]rating.PairKey, 0, len(trace))
	for _, r := range trace {
		pairs = append(pairs, rating.PairKey{Rater: r.Rater, Ratee: r.Ratee})
	}
	slices.SortFunc(pairs, func(a, b rating.PairKey) int {
		if a.Rater != b.Rater {
			return a.Rater - b.Rater
		}
		return a.Ratee - b.Ratee
	})
	pairs = slices.Compact(pairs)
	l.replayed += len(pairs)

	// Closeness replays every stride-th rater's pairs, so a workload with
	// tens of thousands of pairs per interval replays a few thousand.
	params := socialgraph.ClosenessParams{MaxPathHops: closenessHops}
	stride := 1 + len(pairs)/maxClosenessReplay
	var ratees []socialgraph.NodeID
	var d time.Duration
	for lo, n := 0, 0; lo < len(pairs); n++ {
		hi := lo
		ratees = ratees[:0]
		for ; hi < len(pairs) && pairs[hi].Rater == pairs[lo].Rater; hi++ {
			ratees = append(ratees, socialgraph.NodeID(pairs[hi].Ratee))
		}
		if n%stride == 0 {
			start := time.Now()
			l.sink += p.graph.ClosenessFrom(socialgraph.NodeID(pairs[lo].Rater), ratees, params)[0]
			d += time.Since(start)
			l.closenessPairs += len(ratees)
		}
		lo = hi
	}
	l.closeness += d

	start := time.Now()
	for _, k := range pairs {
		l.sink += interest.Similarity(p.sets[k.Rater], p.sets[k.Ratee])
	}
	l.similar += time.Since(start)
	for _, r := range trace {
		l.tracker.Record(r.Rater, interest.Category(r.Category))
	}
	start = time.Now()
	for _, k := range pairs {
		l.sink += interest.WeightedSimilarity(p.sets[k.Rater], p.sets[k.Ratee], k.Rater, k.Ratee, l.tracker)
	}
	l.weighted += time.Since(start)

	ledger := rating.NewLedger(l.w.nodes)
	start = time.Now()
	rejected := 0
	for lo := 0; lo < len(trace); lo += l.w.batch {
		if errs := ledger.AddBatch(trace[lo:min(lo+l.w.batch, len(trace))]); errs != nil {
			rejected++
		}
	}
	l.addBatch += time.Since(start)
	start = time.Now()
	snap := ledger.EndInterval()
	l.endLedger += time.Since(start)
	l.ledgered += len(trace)
	if rejected > 0 || len(snap.Ratings) != len(trace) {
		return fmt.Errorf("ledger replay kept %d of %d ratings", len(snap.Ratings), len(trace))
	}
	return nil
}

// metrics computes the per-layer metrics of a traced run. rounds[0] is the
// untraced reference round.
func (l *layers) metrics(rounds []*round, steal float64) map[string]float64 {
	n := float64(l.intervals)
	per := func(d time.Duration) float64 { return d.Seconds() / n }
	var untraced, traced []float64
	var workerRSS float64
	for _, r := range rounds {
		for _, s := range r.steps {
			if r.traced {
				traced = append(traced, s.end.Seconds())
			} else {
				untraced = append(untraced, s.end.Seconds())
			}
		}
		workerRSS = max(workerRSS, r.workerRSS)
	}
	var p50, p99 float64
	if len(l.queryLat) > 0 {
		p50, _ = percentile(l.queryLat, 50)
		p99, _ = percentile(l.queryLat, 99)
	}
	pairs := float64(l.replayed)
	return map[string]float64{
		"manager.submit_s":                         per(l.submit),
		"manager.submit_calls":                     float64(l.submits) / n,
		"manager.query_s":                          per(l.query),
		"manager.queries":                          float64(len(l.queryLat)) / n,
		"manager.drain_s":                          per(l.drain),
		"manager.failed_ops":                       float64(l.failed),
		"manager.ingest_ratings_per_s":             float64(l.ratings) / l.submit.Seconds(),
		"manager.query_p50_us":                     p50,
		"manager.query_p99_us":                     p99,
		"core.adjust_s":                            per(l.adjust),
		"core.pairs":                               pairs / n,
		"core.flagged_pairs":                       float64(l.flagged) / n,
		"core.pairs_skipped":                       float64(l.c.skipped) / n,
		"core.signal_cache_hit_ratio":              float64(l.c.hits) / float64(max(1, l.c.hits+l.c.misses)),
		"core.adjust_signals_s":                    l.spanSelf["adjust.signals"] / n,
		"core.adjust_baseline_s":                   l.spanSelf["adjust.baseline"] / n,
		"core.adjust_classify_s":                   l.spanSelf["adjust.classify"] / n,
		"core.adjust_merge_s":                      l.spanSelf["adjust.merge"] / n,
		"core.adjust_rewrite_s":                    l.spanSelf["adjust.rewrite"] / n,
		"core.absorb_s":                            l.spanSelf["core.absorb"] / n,
		"socialgraph.closeness_us_per_pair":        float64(l.closeness.Nanoseconds()) / 1e3 / float64(l.closenessPairs),
		"interest.similarity_ns_per_pair":          float64(l.similar.Nanoseconds()) / pairs,
		"interest.weighted_similarity_ns_per_pair": float64(l.weighted.Nanoseconds()) / pairs,
		"rating.add_batch_ns_per_rating":           float64(l.addBatch.Nanoseconds()) / float64(l.ledgered),
		"rating.end_interval_ns_per_rating":        float64(l.endLedger.Nanoseconds()) / float64(l.ledgered),
		"eigentrust.update_s":                      per(l.eigen),
		"eigentrust.iterations":                    float64(l.iters) / n,
		"eigentrust.skip_ratio":                    float64(l.skips) / n,
		"eigentrust.csr_rebuilds":                  float64(l.c.rebuilds) / n,
		"eigentrust.fold_s":                        l.spanSelf["eigentrust.fold"] / n,
		"cluster.wire_bytes_per_rating":            float64(l.c.sent+l.c.received) / float64(l.ratings),
		"cluster.reconnects":                       float64(l.c.reconnects),
		"cluster.worker_peak_rss_mb":               workerRSS,
		"persist.wal_bytes_per_rating":             float64(l.walBytes) / float64(l.journaled),
		"persist.fsync_s":                          l.c.fsync / n,
		"runtime.gc_cycles_per_interval":           float64(l.gcCycles) / n,
		"runtime.gc_pause_s":                       per(l.gcPause),
		"runtime.cpu_s_per_interval":               per(l.cpu),
		"runtime.steal_pct":                        100 * steal,
		"trace.coverage":                           (l.covered + l.query).Seconds() / l.wall.Seconds(),
		"trace.overhead_pct":                       100 * (median(traced)/median(untraced) - 1),
	}
}

// export writes the traced intervals' spans as dir/trace_spans.jsonl, the
// layout socialtrust-trace reads.
func (l *layers) export(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace_spans.jsonl"))
	if err != nil {
		return err
	}
	if err := span.WriteJSONL(f, l.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// resetPeakRSS re-arms the kernel's peak resident set (VmHWM) at the
// current resident set, so that a round's peak does not depend on the rounds
// before it.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak resident set: %w", err)
	}
	return nil
}
