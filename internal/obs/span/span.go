// Package span is a zero-dependency hierarchical span recorder in the style
// of the internal/obs/event flight recorder: a package-level
// atomic.Pointer-gated singleton, a bounded ring buffer, and emission sites
// that cost one atomic load plus a nil check while disabled. Spans carry
// trace/span IDs, parent links, a pipeline phase label, and typed
// attributes; a per-trace phase ledger rolls finished spans up into a
// wall-time attribution table (ingest/drain/adjust/iterate/other) without
// rescanning the ring.
//
// Trace context crosses goroutine and component boundaries two ways:
//
//   - explicitly, as a Context value stamped into overlay mailbox messages
//     (SubmitBatch → per-shard deliver → drain), and
//   - ambiently, via SetAmbient: the interval driver (sim loop, pipeline
//     sweep) installs the current interval's context so components reached
//     through the reputation.Engine interface (core.Adjust, the EigenTrust
//     power iteration, the manager drain) can parent their spans without a
//     context parameter threading through every signature.
//
// Recording never alters execution paths: enabling tracing changes no
// computation order, so reputations, detection tables, and audit event
// streams are bit-identical with tracing on or off (pinned by
// TestFullSimTraceBitIdentity in internal/sim).
package span

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"socialtrust/internal/obs/ring"
)

// Pipeline phases the attribution ledger recognizes. Spans with any other
// phase (or none) still record, but contribute no ledger time.
const (
	PhaseIngest  = "ingest"  // query cycles, rating flush, overlay submit
	PhaseDrain   = "drain"   // shard drain, snapshot merge, broadcast
	PhaseAdjust  = "adjust"  // SocialTrust signal/classify/merge/rewrite
	PhaseIterate = "iterate" // EigenTrust CSR refresh + power iteration
)

// Attr is one typed span attribute. Exactly one of Str/Int is meaningful;
// integer attributes leave Str empty.
type Attr struct {
	Key string `json:"k"`
	Str string `json:"s,omitempty"`
	Int int64  `json:"i,omitempty"`
}

// Span is one finished span. Times are microseconds relative to the
// recorder's epoch (its Enable time), matching the Chrome trace-event
// timebase so exports need no conversion.
type Span struct {
	Trace   uint64 `json:"trace"`
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"` // 0 marks a trace root
	Name    string `json:"name"`
	Phase   string `json:"phase,omitempty"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
	Attrs   []Attr `json:"attrs,omitempty"`
}

// Context identifies a position in a trace — the parent under which a
// remote component should hang its spans. The zero Context means "no
// trace"; starting from it records nothing.
type Context struct {
	Trace uint64
	Span  uint64
	Phase string
}

// Attribution is one interval's wall-time breakdown by pipeline phase. A
// span's duration counts toward its phase iff the phase is set and differs
// from its parent's — so nested same-phase spans (per-shard delivers under
// the submit span, per-iteration steps under the EigenTrust span) never
// double-count. Total is the root span's duration.
type Attribution struct {
	Trace   uint64  `json:"trace"`
	Total   float64 `json:"total_seconds"`
	Ingest  float64 `json:"ingest_seconds"`
	Drain   float64 `json:"drain_seconds"`
	Adjust  float64 `json:"adjust_seconds"`
	Iterate float64 `json:"iterate_seconds"`
}

// Attributed is the wall time assigned to a named phase.
func (a Attribution) Attributed() float64 {
	return a.Ingest + a.Drain + a.Adjust + a.Iterate
}

// Other is the unattributed remainder of the interval (clamped at zero:
// concurrency can push phase sums past the root's wall time).
func (a Attribution) Other() float64 {
	if o := a.Total - a.Attributed(); o > 0 {
		return o
	}
	return 0
}

// Coverage is the attributed fraction of the interval's wall time, capped
// at 1.
func (a Attribution) Coverage() float64 {
	if a.Total <= 0 {
		return 0
	}
	if c := a.Attributed() / a.Total; c < 1 {
		return c
	}
	return 1
}

// DefaultCapacity bounds the ring at 64k spans — a 50k-node pipeline
// interval emits a few thousand (per-batch submits, per-shard delivers,
// drain, Adjust sub-phases, per-iteration EigenTrust steps), so the ring
// holds tens of intervals at a few MB.
const DefaultCapacity = 1 << 16

// maxLedgerTraces bounds the attribution ledger when a workload starts
// traces but never collects them (standalone engine benchmarks with tracing
// on); the oldest trace is evicted past this.
const maxLedgerTraces = 1024

// Recorder is a bounded ring buffer of finished spans plus the incremental
// per-trace attribution ledger. All methods are safe for concurrent use and
// nil-receiver safe (a nil Recorder records nothing and reads as empty), so
// call sites gate on a single Current() load.
type Recorder struct {
	epoch   time.Time
	spanIDs atomic.Uint64
	traces  atomic.Uint64
	ambient atomic.Pointer[Context]
	ring    *ring.Ring[Span]

	ledgerMu sync.Mutex
	ledger   map[uint64]*Attribution
}

// NewRecorder creates a recorder holding at most capacity spans
// (DefaultCapacity when capacity <= 0). Its epoch — the zero point of all
// span timestamps — is the creation time.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{
		epoch:  time.Now(),
		ring:   ring.New[Span](capacity, nil),
		ledger: make(map[uint64]*Attribution),
	}
}

// buf returns r's ring; nil for a nil r, whose reads answer zero.
func (r *Recorder) buf() *ring.Ring[Span] {
	if r == nil {
		return nil
	}
	return r.ring
}

// Drain copies the buffered spans out in finish order (oldest first) and
// clears the ring. The attribution ledger is unaffected.
func (r *Recorder) Drain() []Span { return r.buf().Drain() }

// Len returns the number of currently buffered spans.
func (r *Recorder) Len() int { return r.buf().Len() }

// Recorded returns the total number of spans ever finished.
func (r *Recorder) Recorded() uint64 { return r.buf().Recorded() }

// Dropped returns the number of spans lost to ring overwrites.
func (r *Recorder) Dropped() uint64 { return r.buf().Dropped() }

// Capacity returns the ring size.
func (r *Recorder) Capacity() int { return r.buf().Capacity() }

// credit folds one finished span into the per-trace ledger.
func (r *Recorder) credit(trace uint64, phase string, root bool, secs float64) {
	r.ledgerMu.Lock()
	defer r.ledgerMu.Unlock()
	att := r.ledger[trace]
	if att == nil {
		if len(r.ledger) >= maxLedgerTraces {
			oldest := uint64(math.MaxUint64)
			for t := range r.ledger {
				if t < oldest {
					oldest = t
				}
			}
			delete(r.ledger, oldest)
		}
		att = &Attribution{Trace: trace}
		r.ledger[trace] = att
	}
	if root {
		att.Total += secs
	}
	switch phase {
	case PhaseIngest:
		att.Ingest += secs
	case PhaseDrain:
		att.Drain += secs
	case PhaseAdjust:
		att.Adjust += secs
	case PhaseIterate:
		att.Iterate += secs
	}
}

// TakeAttribution removes and returns the accumulated attribution for one
// trace — typically called by the interval driver right after ending the
// root span. ok is false when the trace credited nothing (or tracing is
// off; a nil receiver is safe).
func (r *Recorder) TakeAttribution(trace uint64) (att Attribution, ok bool) {
	if r == nil {
		return Attribution{}, false
	}
	r.ledgerMu.Lock()
	defer r.ledgerMu.Unlock()
	a := r.ledger[trace]
	if a == nil {
		return Attribution{}, false
	}
	delete(r.ledger, trace)
	return *a, true
}

// Active is an in-flight span. A nil *Active is the disabled state: every
// method (End, Child, SetInt, Context, …) no-ops on it, so call sites never
// branch on whether tracing is on.
type Active struct {
	rec        *Recorder
	start      time.Time
	trace      uint64
	id         uint64
	parent     uint64
	name       string
	phase      string
	countPhase bool // this span's phase differs from its parent's
	isRoot     bool // parent == 0: contributes Total on End
	attrs      []Attr
}

// StartRoot starts a new trace (one per pipeline interval) rooted at an
// unphased span. Nil-receiver safe.
func (r *Recorder) StartRoot(name string) *Active {
	if r == nil {
		return nil
	}
	return &Active{
		rec:    r,
		start:  time.Now(),
		trace:  r.traces.Add(1),
		id:     r.spanIDs.Add(1),
		name:   name,
		isRoot: true,
	}
}

// StartFrom starts a span under an explicit remote context — the overlay
// stamps its submit/drain context into mailbox messages and the shard side
// resumes from it here. A zero context (unstamped message, e.g. tracing
// enabled mid-run) records nothing.
func (r *Recorder) StartFrom(ctx Context, name, phase string) *Active {
	if r == nil || ctx.Trace == 0 {
		return nil
	}
	return &Active{
		rec:        r,
		start:      time.Now(),
		trace:      ctx.Trace,
		id:         r.spanIDs.Add(1),
		parent:     ctx.Span,
		name:       name,
		phase:      phase,
		countPhase: phase != "" && phase != ctx.Phase,
	}
}

// StartAmbient starts a span under the recorder's ambient context — the
// parent the interval driver installed with SetAmbient. With no ambient
// installed (a component traced standalone), the span roots its own trace
// and still ledgers its phase, so coverage stays meaningful.
func (r *Recorder) StartAmbient(name, phase string) *Active {
	if r == nil {
		return nil
	}
	if ctx := r.ambient.Load(); ctx != nil && ctx.Trace != 0 {
		return r.StartFrom(*ctx, name, phase)
	}
	a := r.StartRoot(name)
	a.phase = phase
	a.countPhase = phase != ""
	return a
}

// SetAmbient installs ctx as the recorder's ambient parent context and
// returns the previous one (zero when none). The interval driver brackets
// each pipeline stage with this so engine-interface components parent
// correctly. Nil-receiver safe.
func (r *Recorder) SetAmbient(ctx Context) (prev Context) {
	if r == nil {
		return Context{}
	}
	c := ctx // copy declared past the nil check so the disabled path never heap-allocates
	if p := r.ambient.Swap(&c); p != nil {
		return *p
	}
	return Context{}
}

// Child starts a sub-span of a. Nil-safe: a nil parent yields a nil child.
func (a *Active) Child(name, phase string) *Active {
	if a == nil {
		return nil
	}
	return &Active{
		rec:        a.rec,
		start:      time.Now(),
		trace:      a.trace,
		id:         a.rec.spanIDs.Add(1),
		parent:     a.id,
		name:       name,
		phase:      phase,
		countPhase: phase != "" && phase != a.phase,
	}
}

// Context returns a's position for propagation into mailbox messages or
// SetAmbient. Zero when a is nil.
func (a *Active) Context() Context {
	if a == nil {
		return Context{}
	}
	return Context{Trace: a.trace, Span: a.id, Phase: a.phase}
}

// TraceID returns a's trace, 0 when nil — the key for TakeAttribution.
func (a *Active) TraceID() uint64 {
	if a == nil {
		return 0
	}
	return a.trace
}

// SetInt attaches an integer attribute; returns a for chaining. Nil-safe.
func (a *Active) SetInt(key string, v int64) *Active {
	if a == nil {
		return nil
	}
	a.attrs = append(a.attrs, Attr{Key: key, Int: v})
	return a
}

// End finishes the span: records it into the ring and folds its duration
// into the trace's attribution ledger (phase time when its phase differs
// from the parent's; Total when it is the trace root). Nil-safe.
func (a *Active) End() {
	if a == nil {
		return
	}
	d := time.Since(a.start)
	a.rec.ring.Push(Span{
		Trace:   a.trace,
		ID:      a.id,
		Parent:  a.parent,
		Name:    a.name,
		Phase:   a.phase,
		StartUS: a.start.Sub(a.rec.epoch).Microseconds(),
		DurUS:   d.Microseconds(),
		Attrs:   a.attrs,
	})
	if a.isRoot || a.countPhase {
		a.rec.credit(a.trace, a.phase, a.isRoot, d.Seconds())
	}
}

// active is the package-level recorder; nil means tracing is disabled.
var active atomic.Pointer[Recorder]

// Enable installs (and returns) a fresh package-level recorder with the
// given capacity (DefaultCapacity when <= 0), replacing any previous one.
// Spans buffered in a replaced recorder are lost unless drained first.
func Enable(capacity int) *Recorder {
	r := NewRecorder(capacity)
	active.Store(r)
	return r
}

// Disable uninstalls the package-level recorder. Undrained spans in it are
// discarded (hold the *Recorder returned by Enable to drain after
// disabling).
func Disable() { active.Store(nil) }

// Enabled reports whether a package-level recorder is installed.
func Enabled() bool { return active.Load() != nil }

// Current returns the package-level recorder, or nil while disabled.
func Current() *Recorder { return active.Load() }

// Root starts a new trace on the package recorder (nil while disabled).
func Root(name string) *Active { return active.Load().StartRoot(name) }

// From starts a span under an explicit context on the package recorder
// (nil while disabled or when ctx is zero).
func From(ctx Context, name, phase string) *Active {
	return active.Load().StartFrom(ctx, name, phase)
}

// Ambient starts a span under the installed ambient context on the package
// recorder (nil while disabled).
func Ambient(name, phase string) *Active { return active.Load().StartAmbient(name, phase) }

// SetAmbient installs the ambient parent context on the package recorder,
// returning the previous one (zero while disabled).
func SetAmbient(ctx Context) Context { return active.Load().SetAmbient(ctx) }

// Attribute recomputes per-trace attributions offline from an exported span
// slice, applying the same parent-phase exclusion rule the live ledger uses
// incrementally: a span counts toward its phase iff the phase is set and
// differs from its parent's; parent-less spans contribute Total. Results
// are ordered by trace ID (start order). Spans whose parents were dropped
// by ring wraparound attribute conservatively as if unparented.
func Attribute(spans []Span) []Attribution {
	phases := make(map[uint64]string, len(spans))
	for _, s := range spans {
		phases[s.ID] = s.Phase
	}
	byTrace := make(map[uint64]*Attribution)
	order := make([]uint64, 0, 8)
	for _, s := range spans {
		att := byTrace[s.Trace]
		if att == nil {
			att = &Attribution{Trace: s.Trace}
			byTrace[s.Trace] = att
			order = append(order, s.Trace)
		}
		secs := float64(s.DurUS) / 1e6
		if s.Parent == 0 {
			att.Total += secs
		}
		if s.Phase == "" || s.Phase == phases[s.Parent] {
			continue
		}
		switch s.Phase {
		case PhaseIngest:
			att.Ingest += secs
		case PhaseDrain:
			att.Drain += secs
		case PhaseAdjust:
			att.Adjust += secs
		case PhaseIterate:
			att.Iterate += secs
		}
	}
	// Trace IDs are allocated in start order, so sorting them orders the
	// table by interval.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && order[j] < order[j-1]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	out := make([]Attribution, 0, len(order))
	for _, t := range order {
		out = append(out, *byTrace[t])
	}
	return out
}
