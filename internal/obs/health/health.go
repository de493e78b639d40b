// Package health is the repository's ops plane: a background sampler that
// periodically snapshots the metric registry plus process runtime stats into
// a bounded time-series ring, a rule-driven watchdog set that judges
// per-component health (ok/degraded/failing) from the deltas between
// samples, and HTTP probe handlers (/healthz, /readyz, /statusz) that expose
// the verdicts and the sampled window next to the existing /metrics mux.
//
// The sampler follows the same off-by-default discipline as the metric
// registry and the flight recorder: nothing runs until Start is called, and
// the package-level sampler is one atomic pointer, so instrumented code pays
// a single nil check while disabled. Crucially the sampler only *reads* —
// metric snapshots, MemStats, /proc — and never feeds anything back into the
// pipeline, so a health-enabled run is bit-identical to a health-disabled
// one in every deterministic output (reputations, detection tables, audit
// streams). Watchdog status transitions are emitted as event.HealthEvent
// into the flight recorder, where the audit layer splits them into their own
// file precisely to keep that contract checkable byte-for-byte.
package health

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"socialtrust/internal/obs"
	"socialtrust/internal/obs/event"
	"socialtrust/internal/obs/ring"
)

// HealthEvent aliases the flight recorder's watchdog-transition payload so
// /statusz consumers (cmd/socialtrust-top) need only this package.
type HealthEvent = event.HealthEvent

// Status is a tri-state component health verdict. Higher is worse, so
// aggregation is max().
type Status int

const (
	StatusOK Status = iota
	StatusDegraded
	StatusFailing
)

// String renders the verdict as its wire form ("ok", "degraded", "failing").
func (s Status) String() string {
	switch s {
	case StatusDegraded:
		return "degraded"
	case StatusFailing:
		return "failing"
	default:
		return "ok"
	}
}

// MarshalJSON encodes the verdict as its string form.
func (s Status) MarshalJSON() ([]byte, error) { return []byte(`"` + s.String() + `"`), nil }

// UnmarshalJSON decodes the string form ("ok"/"degraded"/"failing");
// anything unrecognized decodes as ok. cmd/socialtrust-top round-trips
// StatusPayload through this.
func (s *Status) UnmarshalJSON(b []byte) error {
	switch strings.Trim(string(b), `"`) {
	case "degraded":
		*s = StatusDegraded
	case "failing":
		*s = StatusFailing
	default:
		*s = StatusOK
	}
	return nil
}

// Config parameterizes a Sampler. The zero value is usable: every field has
// a default applied by Start/New.
type Config struct {
	// Interval is the sampling cadence (default 1s).
	Interval time.Duration
	// SLOInterval is the per-update-interval wall-time budget judged by the
	// interval-slo watchdog; 0 disables that rule.
	SLOInterval time.Duration
	// Registry is the metric registry to snapshot (nil = obs.Default).
	Registry *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.Registry == nil {
		c.Registry = obs.Default
	}
	return c
}

// Sampler sizes and watchdog thresholds.
const (
	windowSize = 120 // samples the time-series ring keeps: two minutes at the default cadence
	maxEvents  = 64  // the local transition log served by /statusz, independent of the flight recorder

	backlogDegradedStreak = 2   // consecutive backlog-growth samples before degraded
	backlogFailingStreak  = 4   // ... before failing
	streakFailing         = 5   // consecutive partial-drain/persist-error samples before failing
	residualStallStreak   = 3   // consecutive maxiter-hit samples with non-decreasing residual before failing
	leakWindow            = 30  // samples of strictly monotonic goroutine/heap growth before degraded
	hold                  = 2   // samples a cleared non-ok verdict lingers before decaying to ok
	fsyncDegradedSeconds  = 0.1 // mean WAL-fsync latency above which persist is degraded; 10x is failing
)

// Sample is one tick's curated view of the registry: the metric families the
// watchdogs and the dashboard consume, flattened out of the full snapshot.
// Counter fields are cumulative; consumers take deltas between consecutive
// samples for rates.
type Sample struct {
	Seq       uint64 `json:"seq"`
	UnixNanos int64  `json:"unix_nanos"`

	// Process runtime (from obs.CaptureRuntime, refreshed by this tick).
	Goroutines int     `json:"goroutines"`
	HeapBytes  uint64  `json:"heap_bytes"`
	RSSBytes   uint64  `json:"rss_bytes"`
	GCTotal    float64 `json:"gc_total"`

	// Manager overlay.
	MailboxDepth  float64 `json:"mailbox_depth"` // summed over shards
	Shards        float64 `json:"shards"`
	ShardsDown    float64 `json:"shards_down"`
	Submits       float64 `json:"submits"`
	Drains        float64 `json:"drains"`
	PartialDrains float64 `json:"partial_drains"`
	ReplicaDrains float64 `json:"replica_drains"`
	Failovers     float64 `json:"failovers"`
	Retries       float64 `json:"retries"`
	Crashes       float64 `json:"crashes"`

	// Durability layer (internal/persist). Fsync fields mirror the
	// persist_wal_fsync_seconds histogram; errors count failed WAL appends,
	// fsyncs, and snapshot writes.
	PersistWALBytes   float64 `json:"persist_wal_bytes"`
	PersistErrors     float64 `json:"persist_errors"`
	PersistRecoveries float64 `json:"persist_recoveries"`
	PersistFsyncCount float64 `json:"persist_fsync_count"`
	PersistFsyncSum   float64 `json:"persist_fsync_sum"`

	// EigenTrust engine.
	Residual    float64 `json:"residual"`
	Converged   float64 `json:"converged"`
	MaxIterHits float64 `json:"maxiter_hits"`
	WarmSkips   float64 `json:"warm_skips"`
	Updates     float64 `json:"updates"`

	// Simulator pipeline.
	Cycles              float64 `json:"cycles"`
	Requests            float64 `json:"requests"`
	QPS                 float64 `json:"qps"`
	LastIntervalSeconds float64 `json:"last_interval_seconds"`
	CycleCount          float64 `json:"cycle_count"`   // sim_cycle_seconds count
	CycleSum            float64 `json:"cycle_sum"`     // sim_cycle_seconds sum
	DrainSeconds        float64 `json:"drain_sum"`     // manager_drain_seconds sum
	AdjustSeconds       float64 `json:"adjust_sum"`    // socialtrust_adjust_seconds sum
	IterateSeconds      float64 `json:"iterate_sum"`   // eigentrust_update_seconds sum
	IterateCount        float64 `json:"iterate_count"` // eigentrust_update_seconds count
}

// Sampler captures Samples on a cadence and runs the watchdog rules over
// them. All methods are safe for concurrent use. Construct with New (manual
// ticks, for tests and embedding) or Start (background goroutine).
type Sampler struct {
	cfg     Config
	window  *ring.Ring[Sample] // stamps each Sample's Seq
	events  *ring.Ring[event.HealthEvent]
	started time.Time

	mu        sync.Mutex
	prev, cur Sample // the two newest samples, as the rules judge them
	rules     []*rule
	worst     Status // overall high-water mark since start

	stop chan struct{}
	done chan struct{}
}

// New builds a sampler without starting its goroutine; call SampleOnce to
// tick it manually. Tests and single-threaded embedders use this.
func New(cfg Config) *Sampler {
	cfg = cfg.withDefaults()
	return &Sampler{
		cfg:     cfg,
		window:  ring.New(windowSize, func(x *Sample, seq uint64) { x.Seq = seq }),
		events:  ring.New[event.HealthEvent](maxEvents, nil),
		started: time.Now(),
		rules:   newRules(cfg),
	}
}

// Start builds a sampler, launches its background goroutine and installs it
// as the package-level sampler (Current). The goroutine only reads state, so
// it is safe to run alongside any deterministic pipeline.
func Start(cfg Config) *Sampler {
	s := New(cfg)
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	go s.loop()
	active.Store(s)
	return s
}

// Stop terminates the background goroutine (blocking until it exits) and
// uninstalls the sampler if it is the package-level one. Idempotent; a
// sampler built with New is stopped trivially.
func (s *Sampler) Stop() {
	if s.stop != nil {
		select {
		case <-s.stop:
		default:
			close(s.stop)
			<-s.done
		}
	}
	active.CompareAndSwap(s, nil)
}

func (s *Sampler) loop() {
	defer close(s.done)
	tick := time.NewTicker(s.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
			s.SampleOnce()
		}
	}
}

// active is the package-level sampler; nil while disabled.
var active atomic.Pointer[Sampler]

// Current returns the package-level sampler, or nil while disabled.
func Current() *Sampler { return active.Load() }

// SampleOnce takes one sample right now and evaluates the watchdogs over
// it — the body of the background loop, exposed for manual ticking.
func (s *Sampler) SampleOnce() Sample {
	rt := obs.CaptureRuntime() // satellite: the sampler keeps runtime gauges fresh
	snap := s.cfg.Registry.Snapshot()
	return s.ingest(flatten(snap, rt), time.Now())
}

// ingest appends one sample to the window and runs the watchdog pass over
// it. Tests drive it directly with fabricated samples.
func (s *Sampler) ingest(smp Sample, now time.Time) Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	smp.UnixNanos = now.UnixNano()
	smp.Seq = s.window.Push(smp)
	s.prev, s.cur = s.cur, smp

	var prev *Sample
	if smp.Seq > 1 {
		prev = &s.prev
	}
	for _, r := range s.rules {
		s.evalRule(r, prev, &s.cur)
	}
	for _, r := range s.rules {
		if r.status > s.worst {
			s.worst = r.status
		}
	}
	return smp
}

// evalRule runs one rule against the newest sample and handles the
// hold/decay state machine and transition events. Callers hold s.mu.
func (s *Sampler) evalRule(r *rule, prev, cur *Sample) {
	v := r.eval(r, prev, cur)
	next := r.status
	switch {
	case v.status > StatusOK:
		next = v.status
		r.holdLeft = hold
		r.detail, r.value, r.threshold = v.detail, v.value, v.threshold
	case r.status > StatusOK:
		// Condition cleared: linger hold samples, then decay to ok.
		if r.holdLeft > 0 {
			r.holdLeft--
		} else {
			next = StatusOK
		}
	}
	if next == r.status {
		return
	}
	he := event.HealthEvent{
		Sample:    cur.Seq,
		Rule:      r.name,
		Component: r.component,
		Status:    next.String(),
		Prev:      r.status.String(),
		Detail:    r.detail,
		Value:     r.value,
		Threshold: r.threshold,
		UnixNanos: cur.UnixNanos,
	}
	if next == StatusOK {
		he.Detail, he.Value, he.Threshold = "recovered", 0, 0
		r.detail, r.value, r.threshold = "", 0, 0
	}
	r.status = next
	s.events.Push(he)
	event.RecordHealth(he)
}

// flatten curates the watched metric families out of a full snapshot.
func flatten(snap obs.Snapshot, rt obs.RuntimeStats) Sample {
	g := func(name string) float64 { return snap.Gauges[name] }
	c := func(name string) float64 { return float64(snap.Counters[name]) }
	smp := Sample{
		Goroutines: rt.Goroutines,
		HeapBytes:  rt.HeapAlloc,
		RSSBytes:   rt.RSS,
		GCTotal:    float64(rt.NumGC),

		Shards:        g("manager_shards"),
		ShardsDown:    g("manager_shards_down"),
		Submits:       c("manager_submit_total"),
		Drains:        c("manager_drain_total"),
		PartialDrains: c("manager_drain_partial_total"),
		ReplicaDrains: c("manager_drain_replica_total"),
		Failovers:     c("manager_submit_failover_total"),
		Retries:       c("manager_submit_retries_total"),
		Crashes:       c("manager_shard_crashes_total"),

		PersistWALBytes:   c("persist_wal_bytes_total"),
		PersistErrors:     c("persist_errors_total"),
		PersistRecoveries: c("persist_recoveries_total"),

		Residual:    g("eigentrust_residual"),
		Converged:   g("eigentrust_converged"),
		MaxIterHits: c("eigentrust_maxiter_hits_total"),
		WarmSkips:   c("eigentrust_warm_start_skips_total"),
		Updates:     c("eigentrust_updates_total"),

		Cycles:              c("sim_cycles_total"),
		Requests:            c("sim_requests_total"),
		QPS:                 g("sim_queries_per_second"),
		LastIntervalSeconds: g("sim_interval_last_seconds"),
	}
	for name, v := range snap.Gauges {
		if strings.HasPrefix(name, "manager_mailbox_depth{") {
			smp.MailboxDepth += v
		}
	}
	if h, ok := snap.Histograms["sim_cycle_seconds"]; ok {
		smp.CycleCount, smp.CycleSum = float64(h.Count), h.Sum
	}
	if h, ok := snap.Histograms["persist_wal_fsync_seconds"]; ok {
		smp.PersistFsyncCount, smp.PersistFsyncSum = float64(h.Count), h.Sum
	}
	if h, ok := snap.Histograms["manager_drain_seconds"]; ok {
		smp.DrainSeconds = h.Sum
	}
	if h, ok := snap.Histograms["socialtrust_adjust_seconds"]; ok {
		smp.AdjustSeconds = h.Sum
	}
	if h, ok := snap.Histograms["eigentrust_update_seconds"]; ok {
		smp.IterateSeconds, smp.IterateCount = h.Sum, float64(h.Count)
	}
	return smp
}

// Status returns the current overall verdict: the max across components.
func (s *Sampler) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	worst := StatusOK
	for _, r := range s.rules {
		if r.status > worst {
			worst = r.status
		}
	}
	return worst
}

// Worst returns the overall high-water-mark verdict since the sampler
// started — the durable record CI and post-hoc checks read, immune to a
// transient degradation recovering before the probe lands.
func (s *Sampler) Worst() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.worst
}

// Window copies out the sampled time-series, oldest first.
func (s *Sampler) Window() []Sample { return s.window.Snapshot() }

// Samples returns the total ticks taken since start.
func (s *Sampler) Samples() uint64 { return s.window.Recorded() }

// Events copies out the sampler's bounded transition log, oldest first.
func (s *Sampler) Events() []event.HealthEvent { return s.events.Snapshot() }
