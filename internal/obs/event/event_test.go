package event

import (
	"strings"
	"sync"
	"testing"

	"socialtrust/internal/obs/ring"
)

// withDisabled forces the package-level recorder off for the test body,
// restoring the previous recorder afterwards.
func withDisabled(t *testing.T, f func()) {
	t.Helper()
	prev := active.Load()
	active.Store(nil)
	defer active.Store(prev)
	f()
}

func TestRingWraparound(t *testing.T) {
	r := NewRecorder(8)
	for i := 0; i < 20; i++ {
		r.RecordFilter(FilterDecision{Rater: i})
	}
	if got := r.Dropped(); got != 12 {
		t.Fatalf("Dropped = %d, want 12", got)
	}
	events := r.Drain()
	if len(events) != 8 {
		t.Fatalf("drained %d events, want 8", len(events))
	}
	for i, e := range events {
		wantSeq := uint64(13 + i) // oldest surviving is the 13th record
		if e.Seq != wantSeq {
			t.Errorf("event %d: seq = %d, want %d", i, e.Seq, wantSeq)
		}
		if e.Filter == nil || e.Filter.Rater != 12+i {
			t.Errorf("event %d: payload = %+v, want rater %d", i, e.Filter, 12+i)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("ring not empty after Drain: %d", r.Len())
	}
	// The ring keeps working after a drain, with monotonic sequences.
	r.RecordCycle(CycleSeries{Cycle: 1})
	post := r.Drain()
	if len(post) != 1 || post[0].Seq != 21 || post[0].Cycle == nil {
		t.Fatalf("post-drain record = %+v, want seq 21 cycle event", post)
	}
}

// TestDrainWhileRecording hammers the ring from writer goroutines while a
// reader drains concurrently, then checks conservation: every recorded
// event is either drained exactly once or accounted as dropped. Run under
// -race this also proves the locking.
func TestDrainWhileRecording(t *testing.T) {
	r := NewRecorder(64)
	const writers, perWriter = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.RecordFilter(FilterDecision{Rater: w, Ratee: i})
			}
		}(w)
	}
	seen := make(map[uint64]bool)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	collect := func() {
		for _, e := range r.Drain() {
			if seen[e.Seq] {
				t.Errorf("seq %d drained twice", e.Seq)
			}
			seen[e.Seq] = true
		}
	}
	for {
		collect()
		select {
		case <-done:
			collect() // final sweep after all writers finished
			if got, want := uint64(len(seen))+r.Dropped(), r.Recorded(); got != want {
				t.Fatalf("drained %d + dropped %d != recorded %d",
					len(seen), r.Dropped(), want)
			}
			if r.Recorded() != writers*perWriter {
				t.Fatalf("recorded = %d, want %d", r.Recorded(), writers*perWriter)
			}
			return
		default:
		}
	}
}

// TestDisabledPathAllocations pins the off-by-default contract: with no
// recorder installed, the package-level record helpers must not allocate
// (mirroring internal/core/alloc_test.go's style for the metric registry).
func TestDisabledPathAllocations(t *testing.T) {
	withDisabled(t, func() {
		d := FilterDecision{Rater: 1, Ratee: 2, Weight: 0.5}
		c := CycleSeries{Cycle: 3}
		m := ManagerEvent{Kind: "drain"}
		allocs := testing.AllocsPerRun(100, func() {
			RecordFilter(d)
			RecordCycle(c)
			RecordManager(m)
			_ = Drain()
		})
		if allocs != 0 {
			t.Fatalf("disabled record path allocates %.1f/op, want 0", allocs)
		}
		if Enabled() || Current() != nil {
			t.Fatal("recorder unexpectedly enabled")
		}
	})
}

func TestEnableDisableGlobal(t *testing.T) {
	prev := active.Load()
	defer active.Store(prev)

	rec := Enable(16)
	if !Enabled() || Current() != rec {
		t.Fatal("Enable did not install the recorder")
	}
	RecordFilter(FilterDecision{Rater: 7})
	RecordManager(ManagerEvent{Kind: "drain", Shards: 3})
	events := Drain()
	if len(events) != 2 || events[0].Filter == nil || events[1].Manager == nil {
		t.Fatalf("global drain = %+v", events)
	}
	Disable()
	if Enabled() || Drain() != nil {
		t.Fatal("Disable left the recorder installed")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	in := []Event{
		{Seq: 1, Filter: &FilterDecision{
			Interval: 2, Rater: 3, Ratee: 4, Mask: 5, Behaviors: "B1|B3",
			Closeness: 0.25, Similarity: 0.5, Positive: 60, Negative: 1,
			PosThreshold: 33, NegThreshold: 33,
			ClosenessBaseMean: 0.4, ClosenessBaseWidth: 0.3, ClosenessBaseN: 100,
			GaussianWeight: 0.8, FreqScale: 0.5, Weight: 0.4,
			PreValue: 60, PostValue: 24,
		}},
		{Seq: 2, Cycle: &CycleSeries{Cycle: 1, Requests: 100, AuthenticRatio: 0.9}},
		{Seq: 3, Manager: &ManagerEvent{Kind: "drain", Shards: 4, Ratings: 1000, Seconds: 0.01}},
	}
	var sb strings.Builder
	if err := ring.WriteJSONL(&sb, in); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(sb.String(), "\n"); got != len(in) {
		t.Fatalf("JSONL has %d lines, want %d", got, len(in))
	}
	out, err := ring.ReadJSONL[Event](strings.NewReader(sb.String() + "\n")) // trailing blank line is fine
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip lost events: %d != %d", len(out), len(in))
	}
	if *out[0].Filter != *in[0].Filter || *out[1].Cycle != *in[1].Cycle || *out[2].Manager != *in[2].Manager {
		t.Fatalf("round trip mutated payloads:\n got %+v\nwant %+v", out, in)
	}
	if _, err := ring.ReadJSONL[Event](strings.NewReader("{bogus\n")); err == nil {
		t.Fatal("malformed line did not error")
	}
}

// TestNilRecorderReads pins that every read answers zero on a nil
// recorder — the value Current returns while recording is off.
func TestNilRecorderReads(t *testing.T) {
	var r *Recorder
	if r.Drain() != nil || r.Len() != 0 || r.Recorded() != 0 || r.Dropped() != 0 || r.Capacity() != 0 {
		t.Fatal("nil recorder read returned a non-zero value")
	}
}

func TestDefaultCapacity(t *testing.T) {
	if NewRecorder(0).Capacity() != DefaultCapacity {
		t.Fatal("non-positive capacity did not default")
	}
	if NewRecorder(-1).Capacity() != DefaultCapacity {
		t.Fatal("negative capacity did not default")
	}
}

// BenchmarkRecordDisabled backs the ~1ns-disabled claim for emission sites
// that gate on Current().
func BenchmarkRecordDisabled(b *testing.B) {
	prev := active.Load()
	active.Store(nil)
	defer active.Store(prev)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := Current(); rec != nil {
			rec.RecordFilter(FilterDecision{Rater: i})
		}
	}
}

func BenchmarkRecordEnabled(b *testing.B) {
	prev := active.Load()
	defer active.Store(prev)
	Enable(1 << 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := Current(); rec != nil {
			rec.RecordFilter(FilterDecision{Rater: i})
		}
	}
}
