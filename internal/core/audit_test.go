package core

import (
	"math"
	"slices"
	"sync"
	"testing"

	"socialtrust/internal/obs/event"
	"socialtrust/internal/rating"
)

// TestAdjustEmitsFilterDecisions pins the flight-recorder contract of
// Adjust: one FilterDecision per shrunk pair, fully populated and in
// agreement with the returned Report.
func TestAdjustEmitsFilterDecisions(t *testing.T) {
	f := newFixture()
	f.normalTraffic()
	f.collusionTraffic(50)
	st := f.socialTrust(Config{})
	snap := f.ledger.EndInterval()

	event.Enable(1 << 10)
	defer event.Disable()

	_, report := st.Adjust(snap)
	if len(report.Adjusted) == 0 {
		t.Fatal("fixture produced no adjusted pairs")
	}
	events := event.Drain()
	if len(events) != len(report.Adjusted) {
		t.Fatalf("%d events for %d adjusted pairs", len(events), len(report.Adjusted))
	}

	byPair := make(map[rating.PairKey]event.FilterDecision)
	for _, e := range events {
		d := e.Filter
		if d == nil {
			t.Fatalf("non-filter event in Adjust stream: %+v", e)
		}
		byPair[rating.PairKey{Rater: d.Rater, Ratee: d.Ratee}] = *d
	}
	// Interval frequency sums per pair, for the pre-value check.
	for _, a := range report.Adjusted {
		d, ok := byPair[a.Pair]
		if !ok {
			t.Fatalf("adjusted pair %+v has no decision event", a.Pair)
		}
		if d.Interval != 1 {
			t.Errorf("pair %+v: interval = %d, want 1", a.Pair, d.Interval)
		}
		if Behavior(d.Mask) != a.Behaviors || d.Behaviors != a.Behaviors.String() {
			t.Errorf("pair %+v: behaviors %q (mask %d), want %q", a.Pair, d.Behaviors, d.Mask, a.Behaviors)
		}
		if d.Closeness != a.Closeness || d.Similarity != a.Similar {
			t.Errorf("pair %+v: signals (%g,%g) != report (%g,%g)",
				a.Pair, d.Closeness, d.Similarity, a.Closeness, a.Similar)
		}
		if d.Weight != a.Weight {
			t.Errorf("pair %+v: weight %g != report %g", a.Pair, d.Weight, a.Weight)
		}
		if math.Abs(d.GaussianWeight*d.FreqScale-d.Weight) > 1e-12 {
			t.Errorf("pair %+v: gaussian %g × freq %g != weight %g",
				a.Pair, d.GaussianWeight, d.FreqScale, d.Weight)
		}
		if d.PosThreshold != report.PosThreshold || d.NegThreshold != report.NegThreshold {
			t.Errorf("pair %+v: thresholds (%g,%g), want (%g,%g)",
				a.Pair, d.PosThreshold, d.NegThreshold, report.PosThreshold, report.NegThreshold)
		}
		// Frequency evidence must actually exceed the triggering threshold.
		if float64(d.Positive) <= report.PosThreshold && float64(d.Negative) <= report.NegThreshold {
			t.Errorf("pair %+v: frequencies (%d,%d) below both thresholds", a.Pair, d.Positive, d.Negative)
		}
		// Both dimensions are on in the default config: the baselines the
		// Gaussian centered on must be populated.
		if d.ClosenessBaseN == 0 || d.SimilarityBaseN == 0 {
			t.Errorf("pair %+v: empty baseline evidence %+v", a.Pair, d)
		}
		if d.PreValue == 0 {
			t.Errorf("pair %+v: zero pre-value", a.Pair)
		}
		if math.Abs(d.PostValue-d.PreValue*d.Weight) > 1e-9 {
			t.Errorf("pair %+v: post %g != pre %g × weight %g", a.Pair, d.PostValue, d.PreValue, d.Weight)
		}
	}

	// The interval sequence advances per pass and rewinds on Reset.
	_, _ = st.Adjust(snap)
	events = event.Drain()
	if len(events) == 0 || events[0].Filter.Interval != 2 {
		t.Fatalf("second pass interval = %+v, want 2", events)
	}
	st.Reset()
	_, _ = st.Adjust(snap)
	events = event.Drain()
	if len(events) == 0 || events[0].Filter.Interval != 1 {
		t.Fatalf("post-Reset interval = %+v, want 1", events)
	}
}

// TestAdjustRecorderDisabled: with no recorder installed, Adjust emits
// nothing and the global drain stays empty.
func TestAdjustRecorderDisabled(t *testing.T) {
	if event.Enabled() {
		t.Skip("a recorder is installed globally")
	}
	f := newFixture()
	f.normalTraffic()
	f.collusionTraffic(50)
	st := f.socialTrust(Config{})
	_, report := st.Adjust(f.ledger.EndInterval())
	if len(report.Adjusted) == 0 {
		t.Fatal("fixture produced no adjusted pairs")
	}
	if got := event.Drain(); got != nil {
		t.Fatalf("disabled recorder drained %d events", len(got))
	}
}

// TestLastReportConcurrent exercises the LastReport/Update/Reset
// concurrency contract under -race: readers may observe the latest report
// while the engine keeps updating. Update takes its snapshot and scales it
// in place, so each call gets a fresh copy of the interval.
func TestLastReportConcurrent(t *testing.T) {
	f := newFixture()
	f.normalTraffic()
	f.collusionTraffic(30)
	st := f.socialTrust(Config{})
	snap := f.ledger.EndInterval()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rep := st.LastReport()
				for _, a := range rep.Adjusted {
					_ = a.Weight // walk the slice: it must be immutable
				}
			}
		}()
	}
	fresh := func() rating.Snapshot {
		return rating.Snapshot{Ratings: slices.Clone(snap.Ratings), MaxSeq: snap.MaxSeq}
	}
	for i := 0; i < 25; i++ {
		st.Update(fresh())
	}
	st.Reset()
	st.Update(fresh())
	close(stop)
	wg.Wait()
	if len(st.LastReport().Adjusted) == 0 {
		t.Fatal("final report lost the adjusted pairs")
	}
}
