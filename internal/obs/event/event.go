// Package event is the repository's decision-audit layer: a bounded,
// lock-cheap ring-buffer flight recorder of structured decision events,
// complementing the aggregate metrics of internal/obs with per-decision
// forensics. Where obs answers "how many ratings were filtered", event
// answers "*why* was this rating shrunk" — which suspicious behavior fired,
// with what closeness/similarity evidence, against which baseline.
//
// Recording follows the same off-by-default discipline as the metric
// registry: the package-level recorder is a single atomic pointer that is
// nil until Enable is called, so an instrumented hot path pays one atomic
// load (~1ns) and zero allocations while disabled. Emission sites that must
// assemble an event payload should gate on Current():
//
//	if rec := event.Current(); rec != nil {
//	    rec.RecordFilter(event.FilterDecision{...})
//	}
//
// The recorder is a fixed-capacity ring (internal/obs/ring): when full, the
// oldest events are overwritten and counted in Dropped, so a runaway event
// source degrades into losing history rather than memory. Drain copies the
// buffered events out in order and clears the ring; internal/audit writes
// the streams one JSON object per line for offline analysis (see
// cmd/socialtrust-audit).
package event

import (
	"sync/atomic"

	"socialtrust/internal/obs/ring"
)

// FilterDecision records one SocialTrust filtering decision: a directed
// (rater, ratee) pair whose ratings were shrunk in one update interval,
// with the full evidence chain of Sections 3–4 of the paper.
type FilterDecision struct {
	// Interval is the 1-based filter interval (== simulation cycle when
	// driven by the simulator's per-cycle reputation update).
	Interval int `json:"interval"`
	Rater    int `json:"rater"`
	Ratee    int `json:"ratee"`

	// Mask is the B1..B4 behavior bitmask (core.Behavior); Behaviors is its
	// human-readable rendering ("B1|B3").
	Mask      int    `json:"mask"`
	Behaviors string `json:"behaviors"`

	// The social signals of the pair: Ωc and Ωs.
	Closeness  float64 `json:"closeness"`
	Similarity float64 `json:"similarity"`

	// Interval frequency evidence: t+(i,j), t−(i,j), and the thresholds
	// they were compared against.
	Positive     int     `json:"positive"`
	Negative     int     `json:"negative"`
	PosThreshold float64 `json:"pos_threshold"`
	NegThreshold float64 `json:"neg_threshold"`

	// The baseline the Gaussian was centered on for each dimension (the
	// interval's system baseline), as mean/width/population.
	// N == 0 means the dimension was disabled or had no baseline.
	ClosenessBaseMean   float64 `json:"closeness_base_mean"`
	ClosenessBaseWidth  float64 `json:"closeness_base_width"`
	ClosenessBaseN      int     `json:"closeness_base_n"`
	SimilarityBaseMean  float64 `json:"similarity_base_mean"`
	SimilarityBaseWidth float64 `json:"similarity_base_width"`
	SimilarityBaseN     int     `json:"similarity_base_n"`

	// GaussianWeight is the Equation 9 factor, FreqScale the frequency
	// normalization min(1, F/t), and Weight their product — the factor
	// actually applied to the pair's rating values.
	GaussianWeight float64 `json:"gaussian_weight"`
	FreqScale      float64 `json:"freq_scale"`
	Weight         float64 `json:"weight"`

	// PreValue/PostValue are the pair's summed rating values before and
	// after the shrink (PostValue == PreValue·Weight).
	PreValue  float64 `json:"pre_value"`
	PostValue float64 `json:"post_value"`
}

// CycleSeries is one simulation cycle's time-series record.
type CycleSeries struct {
	// Cycle is the 1-based simulation cycle.
	Cycle    int     `json:"cycle"`
	Requests int     `json:"requests"`
	QPS      float64 `json:"qps"`
	// AuthenticRatio is the cumulative authentic-download ratio;
	// ColluderShare the fraction of this cycle's requests served by
	// colluders.
	AuthenticRatio float64 `json:"authentic_ratio"`
	ColluderShare  float64 `json:"colluder_share"`
	WallSeconds    float64 `json:"wall_seconds"`
	// Mean normalized reputation by node population after the cycle's
	// reputation update.
	MeanRepPretrusted float64 `json:"mean_rep_pretrusted"`
	MeanRepNormal     float64 `json:"mean_rep_normal"`
	MeanRepColluder   float64 `json:"mean_rep_colluder"`
	// Churn annotations (set only when the run churns the population):
	// online population after the cycle's churn step and the cycle's
	// departure/rejoin counts.
	Online     int `json:"online,omitempty"`
	Departures int `json:"departures,omitempty"`
	Rejoins    int `json:"rejoins,omitempty"`
	// Phases is the cycle's wall-time attribution by pipeline phase,
	// present only when interval tracing (internal/obs/span) was enabled.
	// Like WallSeconds/QPS it is a wall-clock observation, not part of the
	// deterministic event payload.
	Phases *PhaseSeconds `json:"phases,omitempty"`
}

// PhaseSeconds is one cycle's wall-time attribution across the pipeline
// phases of the span ledger (ingest/drain/adjust/iterate), plus the
// unattributed remainder and the attributed fraction of Total.
type PhaseSeconds struct {
	Total    float64 `json:"total"`
	Ingest   float64 `json:"ingest"`
	Drain    float64 `json:"drain"`
	Adjust   float64 `json:"adjust"`
	Iterate  float64 `json:"iterate"`
	Other    float64 `json:"other"`
	Coverage float64 `json:"coverage"`
}

// ManagerEvent records one resource-manager overlay operation or fault
// transition.
type ManagerEvent struct {
	// Kind is "drain" (the periodic drain/merge pass) or — under fault
	// injection — "crash" / "restart" (one shard going down / coming back).
	Kind string `json:"kind"`
	// Drain: overlay shard count and merged interval rating count.
	Shards  int `json:"shards,omitempty"`
	Ratings int `json:"ratings,omitempty"`
	// Seconds is the operation's wall time.
	Seconds float64 `json:"seconds"`

	// Fault-injection annotations. Interval is the 1-based update interval
	// (crash/restart/fault-mode drains). Shard is the affected shard for
	// crash/restart events (meaningless for other kinds). Degraded drains
	// report how many shards' interval data was recovered from a replica
	// mirror (Replicas) or lost outright (Missing); Partial marks a drain
	// that proceeded on a surviving quorum rather than full data.
	Interval int  `json:"interval,omitempty"`
	Shard    int  `json:"shard"`
	Missing  int  `json:"missing,omitempty"`
	Replicas int  `json:"replicas,omitempty"`
	Partial  bool `json:"partial,omitempty"`
}

// HealthEvent records one watchdog status transition from the health
// sampler (internal/obs/health): a rule's verdict for a component changing
// between ok/degraded/failing, with the observed value and the threshold it
// was judged against.
//
// Health events are emitted by an asynchronous sampler goroutine, so their
// Seq interleaving with the deterministic filter/cycle/manager streams is
// wall-clock-dependent. The audit layer therefore splits them into their own
// file (internal/audit HealthFile), and determinism contracts compare the
// per-kind streams — never the merged Seq order.
type HealthEvent struct {
	// Sample is the sampler's tick number at which the transition was seen.
	Sample uint64 `json:"sample"`
	// Rule names the watchdog rule (e.g. "mailbox-backlog",
	// "eigentrust-residual-stall"); Component the subsystem it judges
	// ("manager", "eigentrust", "sim", "runtime").
	Rule      string `json:"rule"`
	Component string `json:"component"`
	// Status is the new verdict ("ok", "degraded", "failing"); Prev the one
	// it transitioned from.
	Status string `json:"status"`
	Prev   string `json:"prev"`
	// Detail is a one-line human-readable explanation; Value/Threshold the
	// observation and bound behind the verdict (0 when not meaningful).
	Detail    string  `json:"detail,omitempty"`
	Value     float64 `json:"value,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`
	// UnixNanos is the sample's wall-clock time (observational, like
	// CycleSeries.WallSeconds — not part of any deterministic payload).
	UnixNanos int64 `json:"unix_nanos,omitempty"`
}

// Event is one recorded flight-recorder entry. Exactly one payload field is
// non-nil; Seq is a monotonic per-recorder sequence number assigned at
// record time (gaps after a Drain indicate ring overwrites — see Dropped).
type Event struct {
	Seq     uint64          `json:"seq"`
	Filter  *FilterDecision `json:"filter,omitempty"`
	Cycle   *CycleSeries    `json:"cycle,omitempty"`
	Manager *ManagerEvent   `json:"manager,omitempty"`
	Health  *HealthEvent    `json:"health,omitempty"`
}

// DefaultCapacity is the ring size Enable uses when given a non-positive
// capacity: large enough to hold every decision of a paper-scale run
// (200 nodes × 50 cycles flags a few thousand pairs), small enough to
// bound memory at a few MB.
const DefaultCapacity = 1 << 16

// Recorder is a bounded ring buffer of events. All methods are safe for
// concurrent use, and the reads (Drain, Len, Recorded, Dropped, Capacity)
// answer zero on a nil Recorder. Record-side cost is one mutex acquisition
// plus a slot copy. The zero Recorder is not usable; call NewRecorder.
type Recorder struct {
	ring *ring.Ring[Event]
}

// NewRecorder creates a recorder holding at most capacity events
// (DefaultCapacity when capacity <= 0).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{ring: ring.New(capacity, func(e *Event, seq uint64) { e.Seq = seq })}
}

// buf returns r's ring; nil for a nil r, whose reads answer zero.
func (r *Recorder) buf() *ring.Ring[Event] {
	if r == nil {
		return nil
	}
	return r.ring
}

// RecordFilter records one filtering decision.
func (r *Recorder) RecordFilter(d FilterDecision) { r.ring.Push(Event{Filter: &d}) }

// RecordCycle records one simulation-cycle time-series sample.
func (r *Recorder) RecordCycle(c CycleSeries) { r.ring.Push(Event{Cycle: &c}) }

// RecordManager records one manager-overlay operation.
func (r *Recorder) RecordManager(m ManagerEvent) { r.ring.Push(Event{Manager: &m}) }

// RecordHealth records one watchdog status transition.
func (r *Recorder) RecordHealth(h HealthEvent) { r.ring.Push(Event{Health: &h}) }

// Drain copies the buffered events out in record order (oldest first) and
// clears the ring. Sequence numbers keep increasing across drains.
func (r *Recorder) Drain() []Event { return r.buf().Drain() }

// AdvanceSeq raises the recorder's sequence counter to at least n, so the
// next recorded event carries Seq n+1. A crash-restarted run uses this to
// continue the event stream of its pre-crash process: events recovered from
// the durable checkpoint keep their original numbers and freshly recorded
// ones follow contiguously, exactly as an uninterrupted run would number
// them. A lower n than the current counter is ignored.
func (r *Recorder) AdvanceSeq(n uint64) { r.ring.AdvanceSeq(n) }

// Len returns the number of currently buffered events.
func (r *Recorder) Len() int { return r.buf().Len() }

// Recorded returns the total number of events ever recorded (the sequence
// counter, including any AdvanceSeq jump).
func (r *Recorder) Recorded() uint64 { return r.buf().Recorded() }

// Dropped returns the number of events lost to ring overwrites.
func (r *Recorder) Dropped() uint64 { return r.buf().Dropped() }

// Capacity returns the ring size.
func (r *Recorder) Capacity() int { return r.buf().Capacity() }

// active is the package-level recorder; nil means recording is disabled.
var active atomic.Pointer[Recorder]

// Enable installs (and returns) a fresh package-level recorder with the
// given capacity (DefaultCapacity when <= 0), replacing any previous one.
// Events buffered in a replaced recorder are lost unless drained first.
func Enable(capacity int) *Recorder {
	r := NewRecorder(capacity)
	active.Store(r)
	return r
}

// Disable uninstalls the package-level recorder. Undrained events in it are
// discarded (hold the *Recorder returned by Enable to drain after
// disabling).
func Disable() { active.Store(nil) }

// Enabled reports whether a package-level recorder is installed.
func Enabled() bool { return active.Load() != nil }

// Current returns the package-level recorder, or nil while disabled.
// Emission sites gate their payload assembly on this.
func Current() *Recorder { return active.Load() }

// RecordFilter records into the package-level recorder (no-op if disabled).
func RecordFilter(d FilterDecision) {
	if r := active.Load(); r != nil {
		r.RecordFilter(d)
	}
}

// RecordCycle records into the package-level recorder (no-op if disabled).
func RecordCycle(c CycleSeries) {
	if r := active.Load(); r != nil {
		r.RecordCycle(c)
	}
}

// RecordManager records into the package-level recorder (no-op if
// disabled).
func RecordManager(m ManagerEvent) {
	if r := active.Load(); r != nil {
		r.RecordManager(m)
	}
}

// RecordHealth records into the package-level recorder (no-op if disabled).
func RecordHealth(h HealthEvent) {
	if r := active.Load(); r != nil {
		r.RecordHealth(h)
	}
}

// Drain drains the package-level recorder (nil while disabled).
func Drain() []Event { return active.Load().Drain() }
