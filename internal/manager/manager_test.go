package manager

import (
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"socialtrust/internal/fault"
	"socialtrust/internal/rating"
	"socialtrust/internal/reputation/ebay"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 1, ebay.New(4)); err == nil {
		t.Error("zero nodes should error")
	}
	if _, err := New(4, 0, ebay.New(4)); err == nil {
		t.Error("zero managers should error")
	}
	if _, err := New(4, 9, ebay.New(4)); err == nil {
		t.Error("more managers than nodes should error")
	}
	if _, err := New(4, 2, nil); err == nil {
		t.Error("nil engine should error")
	}
}

func TestRoutingAndShardCount(t *testing.T) {
	o, err := New(10, 3, ebay.New(10))
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if o.NumManagers() != 3 {
		t.Fatalf("NumManagers = %d", o.NumManagers())
	}
	for node := 0; node < 10; node++ {
		if got := o.ManagerOf(node); got != node%3 {
			t.Fatalf("ManagerOf(%d) = %d", node, got)
		}
	}
}

func TestSubmitQueryUpdateRoundTrip(t *testing.T) {
	o, err := New(6, 2, ebay.New(6))
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if err := o.Submit(rating.Rating{Rater: 0, Ratee: 1, Value: 1}); err != nil {
		t.Fatal(err)
	}
	if got := o.Reputation(1); got != 0 {
		t.Fatalf("reputation before interval end = %v, want 0", got)
	}
	reps := o.EndInterval()
	if reps[1] != 1 {
		t.Fatalf("reputation after update = %v, want 1", reps[1])
	}
	// Queries now served from each manager's broadcast copy.
	if got := o.Reputation(1); got != 1 {
		t.Fatalf("queried reputation = %v, want 1", got)
	}
	if got := o.Reputation(0); got != 0 {
		t.Fatalf("queried reputation of unrated node = %v", got)
	}
}

func TestSubmitErrors(t *testing.T) {
	o, err := New(4, 2, ebay.New(4))
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if err := o.Submit(rating.Rating{Rater: 0, Ratee: 9, Value: 1}); err == nil {
		t.Error("out-of-range ratee should error")
	}
	if err := o.Submit(rating.Rating{Rater: 2, Ratee: 2, Value: 1}); err == nil {
		t.Error("self-rating should propagate the ledger error")
	}
	if got := o.Reputation(-1); got != 0 {
		t.Error("out-of-range query should return 0")
	}
}

func TestMatchesCentralizedLedger(t *testing.T) {
	// The distributed overlay must produce exactly the reputations a
	// single centralized ledger + engine would.
	const n = 16
	events := []rating.Rating{}
	for i := 0; i < n; i++ {
		for d := 1; d <= 3; d++ {
			events = append(events, rating.Rating{Rater: i, Ratee: (i + d) % n, Value: float64(d%2)*2 - 1})
		}
	}

	central := ebay.New(n)
	ledger := rating.NewLedger(n)
	for _, r := range events {
		if err := ledger.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	central.Update(ledger.EndInterval())

	o, err := New(n, 5, ebay.New(n))
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	for _, r := range events {
		if err := o.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	got := o.EndInterval()
	want := central.Reputations()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("node %d: overlay %v vs centralized %v", i, got[i], want[i])
		}
	}
}

func TestConcurrentSubmitsAndQueries(t *testing.T) {
	const n = 32
	o, err := New(n, 4, ebay.New(n))
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				ratee := (w + k%31 + 1) % n
				if ratee == w {
					ratee = (ratee + 1) % n
				}
				if err := o.Submit(rating.Rating{Rater: w, Ratee: ratee, Value: 1}); err != nil {
					t.Error(err)
					return
				}
				_ = o.Reputation(ratee)
			}
		}(w)
	}
	wg.Wait()
	reps := o.EndInterval()
	sum := 0.0
	for _, v := range reps {
		sum += v
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("reputations sum to %v", sum)
	}
}

func TestMultipleIntervals(t *testing.T) {
	o, err := New(4, 2, ebay.New(4))
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	for k := 0; k < 3; k++ {
		if err := o.Submit(rating.Rating{Rater: 0, Ratee: 1, Value: 1}); err != nil {
			t.Fatal(err)
		}
		o.EndInterval()
	}
	if got := o.Reputation(1); got != 1 {
		t.Fatalf("after 3 intervals reputation = %v, want 1 (only rated node)", got)
	}
}

func TestCloseIdempotent(t *testing.T) {
	o, err := New(4, 2, ebay.New(4))
	if err != nil {
		t.Fatal(err)
	}
	o.Close()
	o.Close() // must not panic
}

func TestMergeSnapshots(t *testing.T) {
	a := rating.Snapshot{Ratings: []rating.Rating{{Rater: 1, Ratee: 0, Value: 1}}}
	b := rating.Snapshot{Ratings: []rating.Rating{{Rater: 0, Ratee: 1, Value: -1}, {Rater: 1, Ratee: 0, Value: 1}}}
	m := mergeSnapshots([]rating.Snapshot{a, b})
	if len(m.Ratings) != 3 {
		t.Fatalf("merged %d ratings", len(m.Ratings))
	}
	for i := 1; i < len(m.Ratings); i++ {
		if m.Ratings[i].Ratee < m.Ratings[i-1].Ratee {
			t.Fatal("merged ratings not sorted")
		}
	}
	if runs := rating.PairRuns(m.Ratings, nil); len(runs) != 2 || runs[0].PairKey != (rating.PairKey{Rater: 1, Ratee: 0}) || runs[0].Positive != 2 {
		t.Fatalf("merged pair runs = %+v", runs)
	}
}

// referenceMerge is the cross-shard merge as the drain defined it before
// rating.SortSnapshot existed: the live snapshots' ratings concatenated in
// shard order under a reflect-based stable sort with a five-key less
// function, and MaxSeq the highest mark.
func referenceMerge(snaps []rating.Snapshot) rating.Snapshot {
	var out rating.Snapshot
	for _, s := range snaps {
		out.Ratings = append(out.Ratings, s.Ratings...)
		out.MaxSeq = max(out.MaxSeq, s.MaxSeq)
	}
	sort.SliceStable(out.Ratings, func(a, b int) bool {
		x, y := out.Ratings[a], out.Ratings[b]
		switch {
		case x.Ratee != y.Ratee:
			return x.Ratee < y.Ratee
		case x.Rater != y.Rater:
			return x.Rater < y.Rater
		case x.Cycle != y.Cycle:
			return x.Cycle < y.Cycle
		case x.Category != y.Category:
			return x.Category < y.Category
		default:
			return x.Value < y.Value
		}
	})
	return out
}

// TestMergeSnapshotsMatchesReference pins the merged snapshot — every
// rating's position and MaxSeq — to referenceMerge on the
// drain's input shapes: ratee-disjoint shard snapshots, snapshots whose
// ratees overlap and are not themselves sorted (TestMergeSnapshots' pair,
// and one with a five-key tie across snapshots), one live snapshot among
// missing ones, and no live snapshot at all. The shard ratings repeat
// (ratee, rater, cycle) with differing categories and values, and whole
// five-key tuples with differing Seq, so every key and the tie order shows.
func TestMergeSnapshotsMatchesReference(t *testing.T) {
	const n, k = 12, 4
	shards := make([]*rating.Ledger, k)
	for i := range shards {
		shards[i] = rating.NewLedger(n)
	}
	values := []float64{1, -1, 0.5, 0, -0.25, 1}
	for i := 0; i < 300; i++ {
		r := rating.Rating{
			Rater: (5*i + 1) % n, Ratee: (7 * i) % n, Value: values[(i/3)%len(values)],
			Cycle: (i / 50) % 2, Category: (11 * i) % 3, Seq: uint64(i + 1),
		}
		if r.Rater == r.Ratee {
			continue
		}
		if err := shards[r.Ratee%k].Add(r); err != nil {
			t.Fatal(err)
		}
	}
	disjoint := make([]rating.Snapshot, k)
	for i, l := range shards {
		disjoint[i] = l.EndInterval()
	}
	overlapTie := []rating.Snapshot{
		{
			Ratings: []rating.Rating{{Rater: 1, Ratee: 0, Value: 1, Category: 2, Seq: 3}, {Rater: 1, Ratee: 0, Value: 1, Category: 1, Seq: 4}},
			MaxSeq:  4,
		},
		{
			Ratings: []rating.Rating{{Rater: 0, Ratee: 1, Value: -1, Seq: 7}, {Rater: 1, Ratee: 0, Value: 1, Category: 1, Seq: 1}, {Rater: 1, Ratee: 0, Value: 0.5, Category: 1, Seq: 2}},
			MaxSeq:  7,
		},
	}
	a := rating.Snapshot{Ratings: []rating.Rating{{Rater: 1, Ratee: 0, Value: 1}}}
	b := rating.Snapshot{Ratings: []rating.Rating{{Rater: 0, Ratee: 1, Value: -1}, {Rater: 1, Ratee: 0, Value: 1}}}
	cases := map[string][]rating.Snapshot{
		"ratee-disjoint": disjoint,
		"overlapping":    {a, b},
		"overlap tie":    overlapTie,
		"one live":       {{}, disjoint[2], {}},
		"none live":      {{}, {Ratings: []rating.Rating{}}, {}},
		"nil":            nil,
	}
	for name, snaps := range cases {
		got, want := mergeSnapshots(snaps), referenceMerge(snaps)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: merge differs from the reference:\ngot  %+v\nwant %+v", name, got, want)
		}
	}
}

// FuzzMergeSnapshots pins mergeSnapshots to referenceMerge, ratings and
// MaxSeq, on the drain's input shape: k residue-class snapshots drained from
// rating.Ledgers, some blanked as Missing shards. The first byte sets k
// (1–8) and the second which shards are Missing. When two or more snapshots
// are live, the third byte can damage one of them the way a bad socket
// drain reply would, which the gather must detect: swap a rating with the
// next one or with the one at the mirrored position, or move its ratee into
// the next residue class. (A lone live snapshot passes through unchecked;
// TestMergeSnapshotsPartial pins that.) Five bytes per rating follow:
// rater, ratee, cycle, category and value, over few enough nodes and values
// that five-key ties occur.
func FuzzMergeSnapshots(f *testing.F) {
	seed := func(k, missing, damage byte, n int) []byte {
		data := []byte{k, missing, damage}
		x := uint32(k)<<8 | uint32(n)
		for i := 0; i < 5*n; i++ {
			x = x*1664525 + 1013904223
			data = append(data, byte(x>>24))
		}
		return data
	}
	f.Add([]byte{})
	f.Add(seed(0, 0, 0, 40))
	for _, k := range []byte{1, 3, 7} {
		f.Add(seed(k, 0, 0, 200))
		f.Add(seed(k, 0b101, 0, 200))
		for _, damage := range []byte{0x01, 0x35, 0x12, 0x26, 0x13, 0x3f} {
			f.Add(seed(k, 0b10, damage, 120))
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		const nodes = 24
		values := []float64{1, -1, 0.5, 0, -0.25}
		k, missing, damage := 1+int(data[0]%8), data[1], data[2]
		ledgers := make([]*rating.Ledger, k)
		for c := range ledgers {
			ledgers[c] = rating.NewLedger(nodes)
		}
		for i, b := 0, data[3:]; i+5 <= len(b); i += 5 {
			r := rating.Rating{
				Rater: int(b[i]) % nodes, Ratee: int(b[i+1]) % nodes, Cycle: int(b[i+2] % 3),
				Category: int(b[i+3] % 3), Value: values[int(b[i+4])%len(values)], Seq: uint64(i/5 + 1),
			}
			_ = ledgers[r.Ratee%k].Add(r) // a self-rating is refused
		}
		snaps := make([]rating.Snapshot, k)
		var live []int
		for c, l := range ledgers {
			if missing>>c&1 == 0 {
				snaps[c] = l.EndInterval()
			}
			if len(snaps[c].Ratings) > 0 {
				live = append(live, c)
			}
		}
		if len(live) >= 2 && damage&3 != 0 {
			rs := snaps[live[int(damage>>2&3)%len(live)]].Ratings
			i := int(damage>>4) % len(rs)
			switch damage & 3 {
			case 1:
				j := (i + 1) % len(rs)
				rs[i], rs[j] = rs[j], rs[i]
			case 2:
				j := len(rs) - 1 - i
				rs[i], rs[j] = rs[j], rs[i]
			case 3:
				rs[i].Ratee = (rs[i].Ratee + 1) % nodes
			}
		}
		in := make([][]rating.Rating, k)
		for c, s := range snaps {
			in[c] = slices.Clone(s.Ratings)
		}
		got, want := mergeSnapshots(snaps), referenceMerge(snaps)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d live=%v: merge differs from the reference:\ngot  %+v\nwant %+v", k, live, got, want)
		}
		for c, s := range snaps {
			if !slices.Equal(s.Ratings, in[c]) {
				t.Fatalf("mergeSnapshots modified snapshot %d", c)
			}
		}
	})
}

func TestOperationsAfterClose(t *testing.T) {
	o, err := New(4, 2, ebay.New(4))
	if err != nil {
		t.Fatal(err)
	}
	o.Close()
	if err := o.Submit(rating.Rating{Rater: 0, Ratee: 1, Value: 1}); err != ErrClosed {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	if got := o.Reputation(1); got != 0 {
		t.Fatalf("Reputation after Close = %v, want 0", got)
	}
	reps := o.EndInterval()
	for _, v := range reps {
		if v != 0 {
			t.Fatalf("EndInterval after Close = %v, want zeros", reps)
		}
	}
}

// TestOutOfRangeRaterRejected: a rater outside [0, numNodes) must come back
// as a per-rating error on every overlay, never reach a ledger. Without a
// fault plan the in-process overlay once checked only the ratee, and such a
// rating panicked the shard goroutine — and with it the process.
func TestOutOfRangeRaterRejected(t *testing.T) {
	const n, k = 4, 2
	overlays := []struct {
		name string
		opts func(t *testing.T) Options
	}{
		{"in-process", func(*testing.T) Options { return Options{} }},
		{"in-process fault mode", func(t *testing.T) Options { return Options{Fault: alwaysOnPlan(t, fault.Config{}, k)} }},
		{"transport", func(t *testing.T) Options { return Options{Transport: newFakeTransport(t, k)} }},
	}
	for _, tc := range overlays {
		t.Run(tc.name, func(t *testing.T) {
			o, err := NewWithOptions(n, k, ebay.New(n), tc.opts(t))
			if err != nil {
				t.Fatal(err)
			}
			defer o.Close()
			errs := o.SubmitBatch([]rating.Rating{
				{Rater: 9, Ratee: 1, Value: 1},
				{Rater: 0, Ratee: 1, Value: 1},
			})
			if errs == nil || errs[0] == nil || errs[1] != nil {
				t.Fatalf("SubmitBatch errors = %v, want only index 0 failed", errs)
			}
			if err := o.Submit(rating.Rating{Rater: -1, Ratee: 1, Value: 1}); err == nil {
				t.Fatal("Submit with rater -1 accepted")
			}
			if reps := o.EndInterval(); reps[1] != 1 {
				t.Fatalf("reputation of node 1 = %v, want 1 (the one valid rating)", reps[1])
			}
		})
	}
}
