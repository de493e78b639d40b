package span

import (
	"strings"
	"sync"
	"testing"
	"time"
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

// spin busy-waits a few microseconds so spans whose credit these tests
// assert on record a nonzero duration in the recorder's µs timebase.
func spin() {
	start := time.Now()
	for time.Since(start) < 5*time.Microsecond {
	}
}

func TestRingWraparound(t *testing.T) {
	r := NewRecorder(8)
	root := r.StartRoot("interval")
	for i := 0; i < 20; i++ {
		root.Child("work", PhaseAdjust).End()
	}
	if got := r.Dropped(); got != 12 {
		t.Fatalf("Dropped = %d, want 12", got)
	}
	spans := r.Drain()
	if len(spans) != 8 {
		t.Fatalf("drained %d spans, want 8", len(spans))
	}
	for i, s := range spans {
		// Span IDs allocate in start order: the root took 1, the children
		// 2..21; the oldest survivor is the 13th child (ID 14).
		if want := uint64(14 + i); s.ID != want {
			t.Errorf("span %d: id = %d, want %d", i, s.ID, want)
		}
		if s.Parent != root.id || s.Phase != PhaseAdjust {
			t.Errorf("span %d: parent=%d phase=%q, want parent=%d phase=adjust",
				i, s.Parent, s.Phase, root.id)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("ring not empty after Drain: %d", r.Len())
	}
	// The ring keeps working after a drain; the ledger kept every credit
	// regardless of ring overwrites.
	root.End()
	if post := r.Drain(); len(post) != 1 || post[0].Parent != 0 {
		t.Fatalf("post-drain record = %+v, want the root span", post)
	}
	att, ok := r.TakeAttribution(root.TraceID())
	if !ok || att.Adjust <= 0 || att.Total <= 0 {
		t.Fatalf("attribution = %+v ok=%v, want adjust and total credited", att, ok)
	}
}

// TestDrainWhileRecording hammers the recorder from emitter goroutines
// (start/finish with children, the overlay's concurrency shape) while a
// reader drains concurrently, then checks conservation: every finished span
// is either drained exactly once or accounted as dropped. Run under -race
// this also proves the locking.
func TestDrainWhileRecording(t *testing.T) {
	r := NewRecorder(64)
	const emitters, perEmitter = 8, 300
	var wg sync.WaitGroup
	for w := 0; w < emitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perEmitter; i++ {
				root := r.StartRoot("interval")
				root.Child("deliver", PhaseIngest).SetInt("shard", int64(w)).End()
				root.End()
			}
		}(w)
	}
	seen := make(map[uint64]bool)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	collect := func() {
		for _, s := range r.Drain() {
			if seen[s.ID] {
				t.Errorf("span %d drained twice", s.ID)
			}
			seen[s.ID] = true
		}
	}
	for {
		collect()
		select {
		case <-done:
			collect() // final sweep after all emitters finished
			if got, want := uint64(len(seen))+r.Dropped(), r.Recorded(); got != want {
				t.Fatalf("drained %d + dropped %d != recorded %d",
					len(seen), r.Dropped(), want)
			}
			if want := uint64(emitters * perEmitter * 2); r.Recorded() != want {
				t.Fatalf("recorded = %d, want %d", r.Recorded(), want)
			}
			return
		default:
		}
	}
}

// TestAmbientConcurrency races SetAmbient/StartAmbient across goroutines —
// the shape of the sim driver swapping interval contexts while engine
// components start spans.
func TestAmbientConcurrency(t *testing.T) {
	r := NewRecorder(1 << 12)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				root := r.StartRoot("interval")
				prev := r.SetAmbient(root.Context())
				r.StartAmbient("core.adjust", PhaseAdjust).End()
				r.SetAmbient(prev)
				root.End()
				r.TakeAttribution(root.TraceID())
			}
		}()
	}
	wg.Wait()
}

// TestDisabledPathZeroAlloc pins the off-by-default contract: with no
// recorder installed, a full complement of emission-site calls — root,
// ambient, context propagation, attributes, end — must not allocate.
func TestDisabledPathZeroAlloc(t *testing.T) {
	withDisabled(t, func() {
		allocs := testing.AllocsPerRun(100, func() {
			root := Root("interval")
			prev := SetAmbient(root.Context())
			sp := Ambient("core.adjust", PhaseAdjust)
			sp.SetInt("pairs", 42)
			child := sp.Child("adjust.signals", PhaseAdjust)
			child.End()
			From(sp.Context(), "shard.deliver", PhaseIngest).End()
			sp.End()
			SetAmbient(prev)
			root.End()
			Current().TakeAttribution(root.TraceID())
			_ = Current().Drain()
		})
		if allocs != 0 {
			t.Fatalf("disabled span path allocates %.1f/op, want 0", allocs)
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
	root := Root("interval")
	root.Child("sim.ingest", PhaseIngest).End()
	root.End()
	spans := rec.Drain()
	if len(spans) != 2 || spans[0].Phase != PhaseIngest || spans[1].Parent != 0 {
		t.Fatalf("global drain = %+v", spans)
	}
	Disable()
	if Enabled() || Root("x") != nil {
		t.Fatal("Disable left the recorder installed")
	}
}

// TestAttributionExclusionRule checks the ledger's double-count guard: a
// span credits its phase only when the parent's phase differs, the root
// credits Total, and the live ledger agrees with the offline Attribute
// recomputation over the exported spans.
func TestAttributionExclusionRule(t *testing.T) {
	r := NewRecorder(0)
	root := r.StartRoot("interval")
	ingest := root.Child("sim.ingest", PhaseIngest)
	ingest.Child("manager.submit_batch", PhaseIngest).End() // same phase: excluded
	spin()
	ingest.End()
	adj := r.StartFrom(root.Context(), "core.adjust", PhaseAdjust)
	adj.Child("adjust.signals", PhaseAdjust).End() // excluded
	spin()
	adj.End()
	spin()
	root.End()

	spans := r.Drain()
	live, ok := r.TakeAttribution(root.TraceID())
	if !ok {
		t.Fatal("no live attribution")
	}
	offline := Attribute(spans)
	if len(offline) != 1 {
		t.Fatalf("offline attributions = %d, want 1", len(offline))
	}
	for _, att := range []Attribution{live, offline[0]} {
		if att.Total <= 0 || att.Ingest <= 0 || att.Adjust <= 0 {
			t.Fatalf("attribution missing credit: %+v", att)
		}
		// The ingest credit must equal the sim.ingest span alone — the
		// nested submit span was excluded (it would double the figure).
		if att.Ingest >= att.Total || att.Coverage() <= 0 || att.Coverage() > 1 {
			t.Fatalf("attribution out of range: %+v coverage=%v", att, att.Coverage())
		}
	}
	if d := live.Ingest - offline[0].Ingest; d > 1e-3 || d < -1e-3 {
		t.Fatalf("live ingest %.6f != offline %.6f", live.Ingest, offline[0].Ingest)
	}
	if _, again := r.TakeAttribution(root.TraceID()); again {
		t.Fatal("TakeAttribution did not clear the trace")
	}
}

// TestStartFromZeroContext pins that unstamped mailbox messages record
// nothing even while tracing is on.
func TestStartFromZeroContext(t *testing.T) {
	r := NewRecorder(0)
	if sp := r.StartFrom(Context{}, "shard.deliver", PhaseIngest); sp != nil {
		t.Fatalf("StartFrom(zero) = %+v, want nil", sp)
	}
	if r.Recorded() != 0 {
		t.Fatal("zero-context start recorded a span")
	}
}

// TestStandaloneAmbientRootsOwnTrace covers engine components traced
// without an interval driver: the span roots a fresh trace and still
// ledgers both Total and its phase.
func TestStandaloneAmbientRootsOwnTrace(t *testing.T) {
	r := NewRecorder(0)
	sp := r.StartAmbient("eigentrust.update", PhaseIterate)
	spin()
	sp.End()
	att, ok := r.TakeAttribution(sp.TraceID())
	if !ok || att.Total <= 0 || att.Iterate <= 0 {
		t.Fatalf("standalone attribution = %+v ok=%v", att, ok)
	}
	offline := Attribute(r.Drain())
	if len(offline) != 1 || offline[0].Total <= 0 || offline[0].Iterate <= 0 {
		t.Fatalf("offline standalone attribution = %+v", offline)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	in := []Span{
		{Trace: 1, ID: 1, Name: "interval", StartUS: 10, DurUS: 5000},
		{Trace: 1, ID: 2, Parent: 1, Name: "sim.ingest", Phase: PhaseIngest,
			StartUS: 12, DurUS: 3000,
			Attrs: []Attr{{Key: "ratings", Int: 800}, {Key: "mode", Str: "batched"}}},
		{Trace: 2, ID: 3, Name: "interval", StartUS: 6000, DurUS: 4000},
	}
	var sb strings.Builder
	if err := WriteJSONL(&sb, in); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(sb.String(), "\n"); got != len(in) {
		t.Fatalf("JSONL has %d lines, want %d", got, len(in))
	}
	out, err := ReadJSONL(strings.NewReader(sb.String() + "\n")) // trailing blank line is fine
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip lost spans: %d != %d", len(out), len(in))
	}
	if out[1].Name != in[1].Name || len(out[1].Attrs) != 2 || out[1].Attrs[1].Str != "batched" {
		t.Fatalf("round trip mutated payloads:\n got %+v\nwant %+v", out, in)
	}
	if _, err := ReadJSONL(strings.NewReader("{bogus\n")); err == nil {
		t.Fatal("malformed line did not error")
	}
}

func TestChromeTraceExport(t *testing.T) {
	spans := []Span{
		{Trace: 1, ID: 1, Name: "interval", StartUS: 0, DurUS: 100},
		{Trace: 1, ID: 2, Parent: 1, Name: "core.adjust", Phase: PhaseAdjust,
			StartUS: 10, DurUS: 50, Attrs: []Attr{{Key: "pairs", Int: 7}}},
	}
	var sb strings.Builder
	if err := WriteChromeTrace(&sb, spans); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`"traceEvents"`, `"ph":"X"`, `"name":"core.adjust"`, `"cat":"adjust"`,
		`"tid":1`, `"pairs":7`, `"parent":1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("chrome trace missing %s:\n%s", want, out)
		}
	}
}

// TestNilRecorderReads pins that every read answers zero on a nil
// recorder — the value Current returns while tracing is off.
func TestNilRecorderReads(t *testing.T) {
	var r *Recorder
	if r.Drain() != nil || r.Len() != 0 || r.Recorded() != 0 || r.Dropped() != 0 || r.Capacity() != 0 {
		t.Fatal("nil recorder read returned a non-zero value")
	}
	if _, ok := r.TakeAttribution(1); ok {
		t.Fatal("nil recorder returned an attribution")
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

// BenchmarkSpanSiteDisabled backs the "≤ a few ns per call site while off"
// claim: one Ambient start + End pair, the hot-path emission shape.
func BenchmarkSpanSiteDisabled(b *testing.B) {
	prev := active.Load()
	active.Store(nil)
	defer active.Store(prev)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := Ambient("core.adjust", PhaseAdjust)
		sp.End()
	}
}

func BenchmarkSpanSiteEnabled(b *testing.B) {
	prev := active.Load()
	defer active.Store(prev)
	r := Enable(1 << 12)
	root := Root("interval") // real call sites run under an interval's ambient context
	r.SetAmbient(root.Context())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := Ambient("core.adjust", PhaseAdjust)
		sp.End()
	}
}
