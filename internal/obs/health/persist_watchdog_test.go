package health

import (
	"testing"
)

// TestPersistErrorsRule: durability failures flip the persist component to
// degraded immediately and to failing when they keep coming.
func TestPersistErrorsRule(t *testing.T) {
	s := New(Config{})
	tick(s, Sample{})
	tick(s, Sample{PersistErrors: 0})
	if got := ruleStatus(t, s, "persist-errors"); got != StatusOK {
		t.Fatalf("no errors = %v, want ok", got)
	}
	tick(s, Sample{PersistErrors: 1})
	if got := ruleStatus(t, s, "persist-errors"); got != StatusDegraded {
		t.Fatalf("first error = %v, want degraded", got)
	}
	for _, c := range s.Components() {
		if c.Name == "persist" && c.Status != StatusDegraded {
			t.Fatalf("persist component = %v, want degraded", c.Status)
		}
	}
	// Sustained failures escalate at the streakFailing threshold (5).
	for e := 2.0; e <= 5; e++ {
		tick(s, Sample{PersistErrors: e})
	}
	if got := ruleStatus(t, s, "persist-errors"); got != StatusFailing {
		t.Fatalf("streak 5 = %v, want failing", got)
	}
	// Errors stop; the verdict decays after the hold.
	tick(s, Sample{PersistErrors: 5})
	tick(s, Sample{PersistErrors: 5})
	tick(s, Sample{PersistErrors: 5})
	if got := ruleStatus(t, s, "persist-errors"); got != StatusOK {
		t.Fatalf("after recovery = %v, want ok", got)
	}
}

// TestWALFsyncLatencyRule: the mean WAL fsync latency between samples is
// judged against the fsyncDegradedSeconds budget (degraded) and 10x it
// (failing).
func TestWALFsyncLatencyRule(t *testing.T) {
	s := New(Config{}) // budget 0.1s
	tick(s, Sample{})
	// 10 fsyncs at 1ms mean: healthy.
	tick(s, Sample{PersistFsyncCount: 10, PersistFsyncSum: 0.01})
	if got := ruleStatus(t, s, "wal-fsync-slow"); got != StatusOK {
		t.Fatalf("1ms fsyncs = %v, want ok", got)
	}
	// 10 more at 200ms mean: over budget.
	tick(s, Sample{PersistFsyncCount: 20, PersistFsyncSum: 2.01})
	if got := ruleStatus(t, s, "wal-fsync-slow"); got != StatusDegraded {
		t.Fatalf("200ms fsyncs = %v, want degraded", got)
	}
	// 10 more at 2s mean: over 10x budget.
	tick(s, Sample{PersistFsyncCount: 30, PersistFsyncSum: 22.01})
	if got := ruleStatus(t, s, "wal-fsync-slow"); got != StatusFailing {
		t.Fatalf("2s fsyncs = %v, want failing", got)
	}
	// Back to 1ms; decays after the hold.
	tick(s, Sample{PersistFsyncCount: 40, PersistFsyncSum: 22.02})
	tick(s, Sample{PersistFsyncCount: 50, PersistFsyncSum: 22.03})
	tick(s, Sample{PersistFsyncCount: 60, PersistFsyncSum: 22.04})
	if got := ruleStatus(t, s, "wal-fsync-slow"); got != StatusOK {
		t.Fatalf("after recovery = %v, want ok", got)
	}
}
