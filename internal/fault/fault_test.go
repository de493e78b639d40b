package fault

import (
	"reflect"
	"testing"
)

func TestConfigEnabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Error("zero config should be disabled")
	}
	for _, c := range []Config{
		{Drop: 0.1}, {CrashRate: 0.01},
		{Crashes: []Crash{{Shard: 0, AtInterval: 1}}}, {AlwaysOn: true},
	} {
		if !c.Enabled() {
			t.Errorf("%+v should be enabled", c)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	for _, c := range []Config{
		{Drop: -0.1},
		{Drop: 1.5},
		{CrashRate: 2},
		{Crashes: []Crash{{Shard: -1, AtInterval: 1}}},
		{Crashes: []Crash{{Shard: 0, AtInterval: 0}}},
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("%+v should fail validation", c)
		}
	}
	if err := (Config{Drop: 1, CrashRate: 1}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestNewPlanValidation(t *testing.T) {
	if _, err := NewPlan(Config{}, 0); err == nil {
		t.Error("zero shards should error")
	}
	if _, err := NewPlan(Config{Crashes: []Crash{{Shard: 5, AtInterval: 1}}}, 4); err == nil {
		t.Error("out-of-range crash shard should error")
	}
}

// TestPlanDeterministic is the golden property: two plans built from the
// same configuration produce identical verdict sequences and event logs.
func TestPlanDeterministic(t *testing.T) {
	cfg := Config{Seed: 11, Drop: 0.2, CrashRate: 0.1}
	run := func() ([]Verdict, []Event) {
		p, err := NewPlan(cfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		var vs []Verdict
		for i := 0; i < 5; i++ {
			p.BeginInterval()
			for d := 0; d < 50; d++ {
				vs = append(vs, p.DeliveryVerdict(d%4))
			}
		}
		return vs, p.Events()
	}
	v1, e1 := run()
	v2, e2 := run()
	if !reflect.DeepEqual(v1, v2) {
		t.Fatal("verdict sequences diverged for identical configs")
	}
	if !reflect.DeepEqual(e1, e2) {
		t.Fatal("event logs diverged for identical configs")
	}
	if len(e1) == 0 {
		t.Fatal("plan with 20% drop over 250 deliveries injected nothing")
	}
}

func TestSeedChangesSequence(t *testing.T) {
	mk := func(seed uint64) []Event {
		p, err := NewPlan(Config{Seed: seed, Drop: 0.3}, 2)
		if err != nil {
			t.Fatal(err)
		}
		p.BeginInterval()
		for d := 0; d < 100; d++ {
			p.DeliveryVerdict(d % 2)
		}
		return p.Events()
	}
	if reflect.DeepEqual(mk(1), mk(2)) {
		t.Fatal("different seeds produced identical event logs")
	}
}

func TestScheduledCrashAndRestart(t *testing.T) {
	p, err := NewPlan(Config{Crashes: []Crash{{Shard: 1, AtInterval: 2, Down: 2}}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	c, r := p.BeginInterval() // interval 1
	if len(c) != 0 || len(r) != 0 {
		t.Fatalf("interval 1: crashes %v restarts %v, want none", c, r)
	}
	c, _ = p.BeginInterval() // interval 2: shard 1 goes down
	if len(c) != 1 || c[0] != 1 {
		t.Fatalf("interval 2 crashes = %v, want [1]", c)
	}
	if !p.Down(1) || p.Down(0) {
		t.Fatal("down tracking wrong after crash")
	}
	c, r = p.BeginInterval() // interval 3: still down
	if len(c) != 0 || len(r) != 0 {
		t.Fatalf("interval 3: crashes %v restarts %v, want none", c, r)
	}
	_, r = p.BeginInterval() // interval 4: restart
	if len(r) != 1 || r[0] != 1 {
		t.Fatalf("interval 4 restarts = %v, want [1]", r)
	}
	if p.Down(1) {
		t.Fatal("shard 1 should be up after restart")
	}
}

func TestCrashForever(t *testing.T) {
	p, err := NewPlan(Config{Crashes: []Crash{{Shard: 0, AtInterval: 1, Down: -1}}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	p.BeginInterval()
	for i := 0; i < 10; i++ {
		_, r := p.BeginInterval()
		if len(r) != 0 {
			t.Fatalf("forever-down shard restarted at interval %d", p.Interval())
		}
	}
	if !p.Down(0) {
		t.Fatal("shard 0 should still be down")
	}
}

func TestZeroRatesVerdictsClean(t *testing.T) {
	p, err := NewPlan(Config{AlwaysOn: true}, 2)
	if err != nil {
		t.Fatal(err)
	}
	p.BeginInterval()
	for i := 0; i < 100; i++ {
		if v := p.DeliveryVerdict(i % 2); v != (Verdict{}) {
			t.Fatalf("zero-rate plan injected %+v", v)
		}
	}
	if len(p.Events()) != 0 {
		t.Fatal("zero-rate plan logged events")
	}
}
