package health

import (
	"fmt"
	"testing"
	"time"

	"socialtrust/internal/obs"
	"socialtrust/internal/obs/event"
)

// tick pushes a fabricated sample through the sampler's watchdog pass.
func tick(s *Sampler, smp Sample) {
	s.ingest(smp, time.Unix(0, int64(s.Samples()+1)*int64(time.Second)))
}

// ruleStatus digs one rule's current verdict out of the component view.
func ruleStatus(t *testing.T, s *Sampler, name string) Status {
	t.Helper()
	for _, c := range s.Components() {
		for _, r := range c.Rules {
			if r.Rule == name {
				return r.Status
			}
		}
	}
	t.Fatalf("rule %q not found", name)
	return StatusOK
}

func TestMailboxBacklogRule(t *testing.T) {
	s := New(Config{})
	// Depth rising while drains advance: healthy load, not a backlog.
	tick(s, Sample{MailboxDepth: 0, Drains: 0})
	tick(s, Sample{MailboxDepth: 10, Drains: 1})
	tick(s, Sample{MailboxDepth: 20, Drains: 2})
	if got := s.Status(); got != StatusOK {
		t.Fatalf("rising depth with drains = %v, want ok", got)
	}
	// Depth rising with drains stuck: degraded at streak 2, failing at 4.
	tick(s, Sample{MailboxDepth: 30, Drains: 2}) // streak 1
	if got := ruleStatus(t, s, "mailbox-backlog"); got != StatusOK {
		t.Fatalf("streak 1 = %v, want ok", got)
	}
	tick(s, Sample{MailboxDepth: 40, Drains: 2}) // streak 2
	if got := ruleStatus(t, s, "mailbox-backlog"); got != StatusDegraded {
		t.Fatalf("streak 2 = %v, want degraded", got)
	}
	tick(s, Sample{MailboxDepth: 50, Drains: 2})
	tick(s, Sample{MailboxDepth: 60, Drains: 2}) // streak 4
	if got := ruleStatus(t, s, "mailbox-backlog"); got != StatusFailing {
		t.Fatalf("streak 4 = %v, want failing", got)
	}
	// A drain clears the condition; the verdict decays after the hold.
	tick(s, Sample{MailboxDepth: 0, Drains: 3}) // hold ticks
	tick(s, Sample{MailboxDepth: 0, Drains: 3})
	if got := ruleStatus(t, s, "mailbox-backlog"); got != StatusFailing {
		t.Fatalf("inside hold = %v, want failing", got)
	}
	tick(s, Sample{MailboxDepth: 0, Drains: 3})
	if got := ruleStatus(t, s, "mailbox-backlog"); got != StatusOK {
		t.Fatalf("after drain + hold = %v, want ok", got)
	}
}

func TestShardOutageRule(t *testing.T) {
	s := New(Config{})
	tick(s, Sample{Shards: 4, ShardsDown: 0})
	if got := s.Status(); got != StatusOK {
		t.Fatalf("all shards up = %v, want ok", got)
	}
	tick(s, Sample{Shards: 4, ShardsDown: 1})
	if got := ruleStatus(t, s, "shard-outage"); got != StatusDegraded {
		t.Fatalf("1 of 4 down = %v, want degraded", got)
	}
	tick(s, Sample{Shards: 4, ShardsDown: 4})
	if got := ruleStatus(t, s, "shard-outage"); got != StatusFailing {
		t.Fatalf("all down = %v, want failing", got)
	}
	tick(s, Sample{Shards: 4, ShardsDown: 0}) // hold ticks
	tick(s, Sample{Shards: 4, ShardsDown: 0})
	tick(s, Sample{Shards: 4, ShardsDown: 0})
	if got := s.Status(); got != StatusOK {
		t.Fatalf("recovered = %v, want ok", got)
	}
	if got := s.Worst(); got != StatusFailing {
		t.Fatalf("Worst after recovery = %v, want failing high-water mark", got)
	}
}

func TestDrainDegradationRules(t *testing.T) {
	s := New(Config{})
	tick(s, Sample{})
	tick(s, Sample{ReplicaDrains: 2})
	if got := ruleStatus(t, s, "drain-degraded"); got != StatusDegraded {
		t.Fatalf("replica drains = %v, want degraded", got)
	}
	// Partial drains escalate to failing on a sustained streak.
	tick(s, Sample{ReplicaDrains: 2, PartialDrains: 1})
	tick(s, Sample{ReplicaDrains: 2, PartialDrains: 2})
	if got := ruleStatus(t, s, "partial-drain-streak"); got != StatusDegraded {
		t.Fatalf("partial streak 2 = %v, want degraded", got)
	}
	tick(s, Sample{ReplicaDrains: 2, PartialDrains: 3})
	tick(s, Sample{ReplicaDrains: 2, PartialDrains: 4})
	if got := ruleStatus(t, s, "partial-drain-streak"); got != StatusDegraded {
		t.Fatalf("partial streak 4 = %v, want degraded", got)
	}
	tick(s, Sample{ReplicaDrains: 2, PartialDrains: 5})
	if got := ruleStatus(t, s, "partial-drain-streak"); got != StatusFailing {
		t.Fatalf("partial streak 5 = %v, want failing", got)
	}
}

func TestFailoverRule(t *testing.T) {
	s := New(Config{})
	tick(s, Sample{Failovers: 0})
	tick(s, Sample{Failovers: 5})
	if got := ruleStatus(t, s, "failover-streak"); got != StatusDegraded {
		t.Fatalf("failover delta = %v, want degraded", got)
	}
	// Failovers mean every rating still landed (on a mirror), so the rule
	// never escalates past degraded no matter how long the streak runs —
	// not even past the streak that fails the other manager rules.
	for f := 9.0; f <= 9+5*streakFailing; f += 5 {
		tick(s, Sample{Failovers: f})
	}
	if got := ruleStatus(t, s, "failover-streak"); got != StatusDegraded {
		t.Fatalf("sustained failover = %v, want degraded (capped)", got)
	}
	last := 9.0 + 5*streakFailing
	tick(s, Sample{Failovers: last})
	tick(s, Sample{Failovers: last})
	tick(s, Sample{Failovers: last})
	if got := ruleStatus(t, s, "failover-streak"); got != StatusOK {
		t.Fatalf("quiet failovers = %v, want ok after hold decay", got)
	}
}

func TestEigenTrustRules(t *testing.T) {
	s := New(Config{})
	tick(s, Sample{MaxIterHits: 0, Residual: 0.5})
	// MaxIter hit with a shrinking residual: degraded but converging.
	tick(s, Sample{MaxIterHits: 1, Residual: 0.1})
	if got := ruleStatus(t, s, "eigentrust-maxiter"); got != StatusDegraded {
		t.Fatalf("maxiter hit = %v, want degraded", got)
	}
	if got := ruleStatus(t, s, "eigentrust-residual-stall"); got != StatusOK {
		t.Fatalf("shrinking residual = %v, want ok", got)
	}
	// Residual stuck across capped updates: the stall rule escalates.
	tick(s, Sample{MaxIterHits: 2, Residual: 0.1})
	if got := ruleStatus(t, s, "eigentrust-residual-stall"); got != StatusDegraded {
		t.Fatalf("stall streak 1 = %v, want degraded", got)
	}
	tick(s, Sample{MaxIterHits: 3, Residual: 0.2})
	if got := ruleStatus(t, s, "eigentrust-residual-stall"); got != StatusDegraded {
		t.Fatalf("stall streak 2 = %v, want degraded", got)
	}
	tick(s, Sample{MaxIterHits: 4, Residual: 0.2})
	if got := ruleStatus(t, s, "eigentrust-residual-stall"); got != StatusFailing {
		t.Fatalf("stall streak 3 = %v, want failing", got)
	}
}

func TestIntervalSLORule(t *testing.T) {
	s := New(Config{SLOInterval: 100 * time.Millisecond})
	tick(s, Sample{CycleCount: 0, CycleSum: 0})
	tick(s, Sample{CycleCount: 2, CycleSum: 0.1}) // mean 50ms, inside budget
	if got := ruleStatus(t, s, "interval-slo"); got != StatusOK {
		t.Fatalf("inside budget = %v, want ok", got)
	}
	tick(s, Sample{CycleCount: 4, CycleSum: 0.4}) // mean 150ms > 100ms
	if got := ruleStatus(t, s, "interval-slo"); got != StatusDegraded {
		t.Fatalf("over budget = %v, want degraded", got)
	}
	tick(s, Sample{CycleCount: 6, CycleSum: 0.9}) // mean 250ms > 2x budget
	if got := ruleStatus(t, s, "interval-slo"); got != StatusFailing {
		t.Fatalf("over 2x budget = %v, want failing", got)
	}
	// No SLO configured: the rule never fires.
	q := New(Config{})
	tick(q, Sample{})
	tick(q, Sample{CycleCount: 1, CycleSum: 1e6})
	if got := q.Status(); got != StatusOK {
		t.Fatalf("no SLO configured = %v, want ok", got)
	}
}

func TestLeakRules(t *testing.T) {
	s := New(Config{})
	for i := 0; i < leakWindow-1; i++ {
		tick(s, Sample{Goroutines: 10 + i, HeapBytes: 1000})
	}
	if got := s.Status(); got != StatusOK {
		t.Fatalf("run of %d < window %d = %v, want ok", leakWindow-1, leakWindow, got)
	}
	top := 10 + leakWindow - 1
	tick(s, Sample{Goroutines: top, HeapBytes: 1000})
	if got := ruleStatus(t, s, "goroutine-leak"); got != StatusDegraded {
		t.Fatalf("monotonic run %d = %v, want degraded", leakWindow, got)
	}
	if got := ruleStatus(t, s, "heap-leak"); got != StatusOK {
		t.Fatalf("flat heap = %v, want ok", got)
	}
	// A plateau resets the suspicion.
	tick(s, Sample{Goroutines: top, HeapBytes: 1000}) // hold ticks
	tick(s, Sample{Goroutines: top, HeapBytes: 1000})
	tick(s, Sample{Goroutines: top, HeapBytes: 1000})
	if got := ruleStatus(t, s, "goroutine-leak"); got != StatusOK {
		t.Fatalf("after plateau = %v, want ok", got)
	}
}

func TestWindowBound(t *testing.T) {
	s := New(Config{})
	for i := 0; i < windowSize+10; i++ {
		tick(s, Sample{Goroutines: i})
	}
	w := s.Window()
	if len(w) != windowSize {
		t.Fatalf("window len = %d, want %d", len(w), windowSize)
	}
	if w[0].Seq != 11 || w[windowSize-1].Seq != windowSize+10 {
		t.Fatalf("window seqs = %d..%d, want 11..%d", w[0].Seq, w[windowSize-1].Seq, windowSize+10)
	}
	if got := s.Samples(); got != windowSize+10 {
		t.Fatalf("Samples() = %d, want %d", got, windowSize+10)
	}
	// Goroutines rose on every tick, but the leak rule's run counts only
	// the samples the window holds.
	want := fmt.Sprintf("goroutines rose strictly for %d samples (now %d)", windowSize, windowSize+9)
	for _, c := range s.Components() {
		for _, r := range c.Rules {
			if r.Rule == "goroutine-leak" && r.Detail != want {
				t.Fatalf("goroutine-leak detail = %q, want %q", r.Detail, want)
			}
		}
	}
}

func TestTransitionEvents(t *testing.T) {
	rec := event.Enable(1024)
	defer event.Disable()
	s := New(Config{})
	tick(s, Sample{Shards: 4})
	tick(s, Sample{Shards: 4, ShardsDown: 1})
	tick(s, Sample{Shards: 4}) // hold
	tick(s, Sample{Shards: 4}) // hold
	tick(s, Sample{Shards: 4})
	evs := s.Events()
	if len(evs) != 2 {
		t.Fatalf("local events = %d, want 2 (degrade + recover)", len(evs))
	}
	if evs[0].Rule != "shard-outage" || evs[0].Status != "degraded" || evs[0].Prev != "ok" {
		t.Fatalf("degrade event = %+v", evs[0])
	}
	if evs[1].Status != "ok" || evs[1].Detail != "recovered" {
		t.Fatalf("recover event = %+v", evs[1])
	}
	drained := rec.Drain()
	var health []event.HealthEvent
	for _, e := range drained {
		if e.Health != nil {
			health = append(health, *e.Health)
		}
	}
	if len(health) != 2 || health[0].Rule != "shard-outage" {
		t.Fatalf("flight recorder got %d health events: %+v", len(health), health)
	}
}

// TestSampleOnceReadsRegistry covers the live capture path end to end: real
// metric writes land in the sample, including labeled mailbox-depth sums and
// runtime stats from CaptureRuntime.
func TestSampleOnceReadsRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	reg.Counter("manager_drain_total").Add(7)
	reg.Gauge("manager_shards").Set(4)
	reg.Gauge(obs.Label("manager_mailbox_depth", "shard", "0")).Set(3)
	reg.Gauge(obs.Label("manager_mailbox_depth", "shard", "1")).Set(5)
	reg.Histogram("sim_cycle_seconds").Observe(0.25)

	s := New(Config{Registry: reg})
	smp := s.SampleOnce()
	if smp.Drains != 7 || smp.Shards != 4 {
		t.Fatalf("sample = %+v, want drains 7 shards 4", smp)
	}
	if smp.MailboxDepth != 8 {
		t.Fatalf("mailbox depth = %v, want 8 (summed over shards)", smp.MailboxDepth)
	}
	if smp.CycleCount != 1 || smp.CycleSum != 0.25 {
		t.Fatalf("cycle hist = %v/%v, want 1/0.25", smp.CycleCount, smp.CycleSum)
	}
	if smp.Goroutines <= 0 || smp.HeapBytes == 0 {
		t.Fatalf("runtime stats missing from sample: %+v", smp)
	}
}

func TestStartStopLifecycle(t *testing.T) {
	s := Start(Config{Interval: time.Millisecond})
	if Current() != s {
		t.Fatal("Start did not install the package-level sampler")
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.Samples() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.Samples() < 3 {
		t.Fatalf("sampler took no samples: %d", s.Samples())
	}
	s.Stop()
	s.Stop() // idempotent
	if Current() != nil {
		t.Fatal("Stop did not uninstall the package-level sampler")
	}
}

// TestDisabledPathAllocs pins the disabled path: code consulting the
// package-level sampler while none is installed must cost a nil check and
// nothing else.
func TestDisabledPathAllocs(t *testing.T) {
	if Current() != nil {
		t.Fatal("sampler unexpectedly installed")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if s := Current(); s != nil {
			t.Fatal("unreachable")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates %.1f per op, want 0", allocs)
	}
}
