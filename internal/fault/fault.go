// Package fault implements deterministic fault injection for the resource-
// manager overlay: seeded, reproducible plans of message drops, delays and
// duplication at the manager mailbox boundary, plus shard crash/restart
// schedules at chosen update intervals.
//
// The paper's Section 4.3 overlay assumes trustworthy, always-available
// resource managers; real P2P deployments are defined by churn, message loss
// and node failure. A Plan is the adversary the hardened overlay
// (internal/manager) is tested against. All randomness derives from
// internal/xrand streams split per shard, so a given (Config, shard count)
// pair always produces the same injected-event sequence regardless of
// wall-clock timing — two runs with the same fault seed are bit-identical,
// which makes detection quality under a fault regime a reproducible,
// regression-testable number.
//
// A Plan additionally keeps an append-only log of every injected event
// (Events), the golden artifact determinism tests compare across runs.
package fault

import (
	"fmt"
	"sync"

	"socialtrust/internal/xrand"
)

// Kind names in the plan's event log.
const (
	KindDrop      = "drop"
	KindDelay     = "delay"
	KindDuplicate = "duplicate"
	KindCrash     = "crash"
	KindRestart   = "restart"
)

// Event is one injected fault, recorded in the plan's deterministic log.
// Interval is the 1-based reputation-update interval the event occurred in
// (0 for message faults injected before the first interval ends).
type Event struct {
	Seq      int    `json:"seq"`
	Interval int    `json:"interval"`
	Shard    int    `json:"shard"`
	Kind     string `json:"kind"`
}

// Verdict is the plan's decision for one message delivery to a shard
// mailbox. At most one of Drop/Delay/Duplicate is set.
type Verdict struct {
	// Drop loses the message: it is never enqueued and the sender's ack
	// deadline lapses.
	Drop bool
	// Delay defers the message: it is enqueued but only applied to the
	// shard's ledger at the next interval drain (a slow message that still
	// arrives within the interval).
	Delay bool
	// Duplicate delivers the message twice (a retransmit race).
	Duplicate bool
}

// Crash is one scheduled shard outage: the shard goes down at the start of
// update interval AtInterval (1-based), losing its in-memory interval
// ledgers, and restarts Down intervals later (Down < 0 keeps it down for the
// rest of the run; Down == 0 means one interval).
type Crash struct {
	Shard      int
	AtInterval int
	Down       int
}

// Config parameterizes a fault plan. The zero Config injects nothing.
type Config struct {
	// Seed roots the plan's random streams. A zero seed is a valid seed;
	// callers wanting per-run variation should derive it from the run seed.
	Seed uint64

	// Per-delivery message fault probabilities, each in [0,1]. They are
	// evaluated in drop → delay → duplicate order on a single uniform draw,
	// so Drop+Delay+Duplicate must not exceed 1.
	Drop      float64
	Delay     float64
	Duplicate float64

	// CrashRate is the per-shard, per-interval probability of an unplanned
	// crash; CrashDown how many intervals a randomly crashed shard stays
	// down (default 1, < 0 forever).
	CrashRate float64
	CrashDown int

	// Crashes is an explicit outage schedule, applied in addition to
	// CrashRate draws.
	Crashes []Crash

	// AlwaysOn installs the plan even when every rate is zero and no crash
	// is scheduled. The overlay's fault-tolerant machinery (replica ledgers,
	// retry/failover, drain deadlines) is active exactly when a plan is
	// installed, so AlwaysOn exercises — and lets tests and benchmarks
	// measure — the hardened path under zero injected faults.
	AlwaysOn bool
}

// Enabled reports whether the configuration asks for a fault plan at all.
func (c Config) Enabled() bool {
	return c.Drop > 0 || c.Delay > 0 || c.Duplicate > 0 ||
		c.CrashRate > 0 || len(c.Crashes) > 0 || c.AlwaysOn
}

// Validate rejects impossible fault configurations.
func (c Config) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{{"Drop", c.Drop}, {"Delay", c.Delay}, {"Duplicate", c.Duplicate}, {"CrashRate", c.CrashRate}} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("fault: %s %v outside [0,1]", p.name, p.v)
		}
	}
	if sum := c.Drop + c.Delay + c.Duplicate; sum > 1 {
		return fmt.Errorf("fault: Drop+Delay+Duplicate = %v exceeds 1", sum)
	}
	for i, cr := range c.Crashes {
		if cr.Shard < 0 {
			return fmt.Errorf("fault: Crashes[%d] negative shard %d", i, cr.Shard)
		}
		if cr.AtInterval < 1 {
			return fmt.Errorf("fault: Crashes[%d] AtInterval %d (intervals are 1-based)", i, cr.AtInterval)
		}
	}
	return nil
}

// Plan is a running fault schedule over a fixed shard count. Methods are
// safe for concurrent use; determinism of the event sequence is guaranteed
// when deliveries happen in a deterministic order (the simulator submits
// ratings from a single goroutine).
type Plan struct {
	mu       sync.Mutex
	cfg      Config
	shards   int
	interval int // current 1-based interval; 0 until the first BeginInterval

	delivery []*xrand.Stream // per-shard message verdict streams
	crash    *xrand.Stream   // random crash draws

	downUntil []int // per shard: first interval it is up again; -1 = forever down; 0 = up
	events    []Event
}

// NewPlan builds a plan for the given shard count.
func NewPlan(cfg Config, shards int) (*Plan, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("fault: shard count %d must be positive", shards)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	for i, cr := range cfg.Crashes {
		if cr.Shard >= shards {
			return nil, fmt.Errorf("fault: Crashes[%d] shard %d out of range for %d shards", i, cr.Shard, shards)
		}
	}
	if cfg.CrashDown == 0 {
		cfg.CrashDown = 1
	}
	root := xrand.New(cfg.Seed)
	p := &Plan{
		cfg:       cfg,
		shards:    shards,
		crash:     root.SplitString("crash"),
		downUntil: make([]int, shards),
	}
	msgRoot := root.SplitString("delivery")
	p.delivery = make([]*xrand.Stream, shards)
	for i := range p.delivery {
		p.delivery[i] = msgRoot.Split(uint64(i))
	}
	return p, nil
}

// Shards reports the shard count the plan was built for.
func (p *Plan) Shards() int { return p.shards }

// DeliveryVerdict draws the fate of one message delivery to the given
// shard's mailbox and logs any injected fault.
func (p *Plan) DeliveryVerdict(shard int) Verdict {
	p.mu.Lock()
	defer p.mu.Unlock()
	c := &p.cfg
	if c.Drop == 0 && c.Delay == 0 && c.Duplicate == 0 {
		return Verdict{}
	}
	u := p.delivery[shard].Float64()
	switch {
	case u < c.Drop:
		p.log(shard, KindDrop)
		return Verdict{Drop: true}
	case u < c.Drop+c.Delay:
		p.log(shard, KindDelay)
		return Verdict{Delay: true}
	case u < c.Drop+c.Delay+c.Duplicate:
		p.log(shard, KindDuplicate)
		return Verdict{Duplicate: true}
	}
	return Verdict{}
}

// BeginInterval advances the plan to the next update interval and returns
// the shard transitions to apply: restarts lists shards whose outage ends
// this interval (they come back with fresh state after the interval's
// drain), crashes the shards going down now (their current interval ledgers
// are lost). A shard never appears in both.
func (p *Plan) BeginInterval() (crashes, restarts []int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.interval++
	t := p.interval
	for s := 0; s < p.shards; s++ {
		if p.downUntil[s] > 0 && p.downUntil[s] <= t {
			p.downUntil[s] = 0
			restarts = append(restarts, s)
			p.log(s, KindRestart)
		}
	}
	down := func(s, dur int) {
		if p.downUntil[s] != 0 { // already down
			return
		}
		if dur < 0 {
			p.downUntil[s] = -1
		} else {
			if dur == 0 {
				dur = 1
			}
			p.downUntil[s] = t + dur
		}
		crashes = append(crashes, s)
		p.log(s, KindCrash)
	}
	for _, cr := range p.cfg.Crashes {
		if cr.AtInterval == t {
			down(cr.Shard, cr.Down)
		}
	}
	if p.cfg.CrashRate > 0 {
		for s := 0; s < p.shards; s++ {
			if p.downUntil[s] == 0 && p.crash.Bool(p.cfg.CrashRate) {
				down(s, p.cfg.CrashDown)
			}
		}
	}
	return crashes, restarts
}

// Interval reports the current 1-based interval (0 before the first
// BeginInterval).
func (p *Plan) Interval() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.interval
}

// Down reports whether the plan currently holds the shard down.
func (p *Plan) Down(shard int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.downUntil[shard] != 0
}

// Events returns a copy of the injected-event log in injection order.
func (p *Plan) Events() []Event {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Event(nil), p.events...)
}

// State is a plan's complete persistent state at an interval boundary. The
// random streams themselves are not serialized; instead the number of draws
// consumed from each is recorded, and ImportState fast-forwards freshly
// seeded streams to the same position (internal/xrand sources advance exactly
// once per draw). A restored plan therefore produces the same verdict
// sequence the uninterrupted plan would have.
type State struct {
	Interval      int
	DownUntil     []int
	Events        []Event
	DeliveryDraws []uint64 // per-shard draws consumed from the delivery streams
	CrashDraws    uint64   // draws consumed from the crash stream
}

// ExportState deep-copies the plan state for snapshotting.
func (p *Plan) ExportState() State {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := State{
		Interval:      p.interval,
		DownUntil:     append([]int(nil), p.downUntil...),
		Events:        append([]Event(nil), p.events...),
		DeliveryDraws: make([]uint64, p.shards),
		CrashDraws:    p.crash.SourceDraws(),
	}
	for i, s := range p.delivery {
		st.DeliveryDraws[i] = s.SourceDraws()
	}
	return st
}

// Validate reports whether the state fits a plan over the given shard count:
// one outage deadline and one delivery-stream position per shard. A state
// read from a file must pass it before ImportState.
func (st State) Validate(shards int) error {
	if len(st.DownUntil) != shards || len(st.DeliveryDraws) != shards {
		return fmt.Errorf("fault: state with %d/%d outage/delivery entries, want %d shards", len(st.DownUntil), len(st.DeliveryDraws), shards)
	}
	return nil
}

// ImportState restores a previously exported state, which must pass Validate,
// into a plan built with the same Config and shard count, discarding stream
// draws so future verdicts match the exporting plan's continuation exactly.
func (p *Plan) ImportState(st State) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := st.Validate(p.shards); err != nil {
		panic(err)
	}
	p.interval = st.Interval
	p.downUntil = append(p.downUntil[:0], st.DownUntil...)
	p.events = append([]Event(nil), st.Events...)
	for i, s := range p.delivery {
		if n := s.SourceDraws(); n > st.DeliveryDraws[i] {
			panic(fmt.Sprintf("fault: delivery stream %d already past restore point (%d > %d)", i, n, st.DeliveryDraws[i]))
		}
		s.Discard(st.DeliveryDraws[i] - s.SourceDraws())
	}
	if n := p.crash.SourceDraws(); n > st.CrashDraws {
		panic(fmt.Sprintf("fault: crash stream already past restore point (%d > %d)", n, st.CrashDraws))
	}
	p.crash.Discard(st.CrashDraws - p.crash.SourceDraws())
}

// log appends one event; callers hold p.mu.
func (p *Plan) log(shard int, kind string) {
	p.events = append(p.events, Event{
		Seq:      len(p.events) + 1,
		Interval: p.interval,
		Shard:    shard,
		Kind:     kind,
	})
}
