package manager

import (
	"testing"

	"socialtrust/internal/obs"
	"socialtrust/internal/rating"
	"socialtrust/internal/reputation/ebay"
)

// TestOverlayMetrics exercises submit/query/drain with recording enabled and
// checks the counters, latency histograms and per-shard mailbox gauges move.
// Deltas (not absolute values) are asserted because the obs registry is
// process-global.
func TestOverlayMetrics(t *testing.T) {
	prev := obs.Enabled()
	obs.Enable()
	defer obs.SetEnabled(prev)

	submits0 := mSubmitTotal.Value()
	queries0 := mQueryTotal.Value()
	drains0 := mDrainTotal.Value()
	submitObs0 := mSubmitLat.Count()
	drainObs0 := obs.H("manager_drain_seconds").Count()

	o, err := New(8, 2, ebay.New(8))
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()

	const n = 20
	for i := 0; i < n; i++ {
		if err := o.Submit(rating.Rating{Rater: 0, Ratee: 1 + i%7, Value: 1}); err != nil {
			t.Fatal(err)
		}
	}
	o.EndInterval()
	for i := 0; i < n; i++ {
		o.Reputation(i % 8)
	}

	if got := mSubmitTotal.Value() - submits0; got < n {
		t.Errorf("manager_submit_total delta = %d, want >= %d", got, n)
	}
	if got := mQueryTotal.Value() - queries0; got < n {
		t.Errorf("manager_query_total delta = %d, want >= %d", got, n)
	}
	if got := mDrainTotal.Value() - drains0; got < 1 {
		t.Errorf("manager_drain_total delta = %d, want >= 1", got)
	}
	if got := mSubmitLat.Count() - submitObs0; got < n {
		t.Errorf("manager_submit_seconds observations delta = %d, want >= %d", got, n)
	}
	if got := obs.H("manager_drain_seconds").Count() - drainObs0; got < 1 {
		t.Errorf("manager_drain_seconds observations delta = %d, want >= 1", got)
	}
	// Shards refresh their depth gauge after every handled message; after a
	// quiesced round-trip the mailboxes are empty.
	for s := 0; s < o.NumManagers(); s++ {
		g := obs.G(obs.Label("manager_mailbox_depth", "shard", string(rune('0'+s))))
		if g.Value() != 0 {
			t.Errorf("shard %d mailbox depth = %g after quiesce, want 0", s, g.Value())
		}
	}
}

// TestMailboxDepthAfterAnsweredOp pins when a shard's mailbox depth gauge
// moves: before the operation's caller is answered. Each round holds the
// mailbox on a blocked first operation while a second one queues behind it,
// so the first leaves a depth of 1; the second leaves 0, and a caller that
// has its answer must read 0, never the older 1.
func TestMailboxDepthAfterAnsweredOp(t *testing.T) {
	prev := obs.Enabled()
	obs.Enable()
	defer obs.SetEnabled(prev)

	tr := newLocalTransport(1, "")
	if err := tr.Start(4, false); err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	l := tr.shards[0]
	for round := 0; round < 20000; round++ {
		release := make(chan struct{})
		first := l.post(0, func() error { <-release; return nil })
		second := l.post(0, func() error { return nil })
		close(release)
		if err := first(); err != nil {
			t.Fatal(err)
		}
		if err := second(); err != nil {
			t.Fatal(err)
		}
		if d := l.depth.Value(); d != 0 {
			t.Fatalf("round %d: mailbox depth %g after the last answered op, want 0", round, d)
		}
	}
}

// TestActivePairsMetric checks that, with metrics on, one drain of a
// 4-shard overlay observes manager_interval_active_pairs once, at the
// interval's number of distinct (rater, ratee) pairs.
func TestActivePairsMetric(t *testing.T) {
	prev := obs.Enabled()
	obs.Enable()
	defer obs.SetEnabled(prev)

	const n = 40
	o, err := New(n, 4, ebay.New(n))
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	trace := batchTrace(3, n, 300)
	pairs := map[rating.PairKey]bool{}
	for _, r := range trace {
		pairs[rating.PairKey{Rater: r.Rater, Ratee: r.Ratee}] = true
	}
	if errs := o.SubmitBatch(trace); errs != nil {
		t.Fatalf("SubmitBatch: %v", errs)
	}
	count0, sum0 := mActivePairs.Count(), mActivePairs.Sum()
	o.EndInterval()
	if got := mActivePairs.Count() - count0; got != 1 {
		t.Fatalf("manager_interval_active_pairs observed %d times in one drain, want 1", got)
	}
	if got := mActivePairs.Sum() - sum0; got != float64(len(pairs)) {
		t.Fatalf("manager_interval_active_pairs observed %v, want %d distinct pairs", got, len(pairs))
	}
}
