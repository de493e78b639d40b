package manager

import (
	"math"
	"slices"
	"testing"

	"socialtrust/internal/persist"
	"socialtrust/internal/rating"
)

// openTestShard opens an 8-node shard journaling to a fresh directory.
func openTestShard(t testing.TB, replicated bool) *Shard {
	t.Helper()
	s, err := OpenShard(0, 8, replicated, t.TempDir(), persist.Options{Fsync: persist.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// walRecords returns the records in the shard's WAL.
func walRecords(t testing.TB, s *Shard) []persist.Record {
	t.Helper()
	recs, err := s.wal.ReadBack()
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// seqMultiset counts the nonzero sequence numbers of rs.
func seqMultiset(rs []rating.Rating) map[uint64]int {
	m := map[uint64]int{}
	for _, r := range rs {
		if r.Seq != 0 {
			m[r.Seq]++
		}
	}
	return m
}

func sameCounts(got seqCounts, want map[uint64]int) bool {
	if len(got) != len(want) {
		return false
	}
	for s, n := range want {
		if got[s] != n {
			return false
		}
	}
	return true
}

// TestAdmitPerDestination drives one mixed batch into each of the four
// destinations, through AddPlain and AddEntries for the primary ledger and
// AddEntries for the others. An out-of-range, self-rating or non-finite
// entry must fail on its own and write no WAL record; an entry whose Seq
// the destination is owed from a replay must be acknowledged, write no
// record and not land; every valid entry must write exactly one record of
// the destination's kind and flags, in entry order, and land by the drain.
func TestAdmitPerDestination(t *testing.T) {
	a := rating.Rating{Rater: 1, Ratee: 2, Value: 1, Seq: 1}
	b := rating.Rating{Rater: 3, Ratee: 2, Value: -1, Seq: 6}
	c := rating.Rating{Rater: 2, Ratee: 5, Value: 0.5, Seq: 8}
	owed := rating.Rating{Rater: 4, Ratee: 5, Value: 1, Seq: 5}
	batch := []rating.Rating{
		a,
		{Rater: 1, Ratee: 8, Value: 1, Seq: 2},  // ratee out of range
		{Rater: -1, Ratee: 2, Value: 1, Seq: 9}, // rater out of range
		{Rater: 3, Ratee: 3, Value: 1, Seq: 3},  // self-rating
		{Rater: 1, Ratee: 4, Value: math.NaN(), Seq: 4},
		owed,
		b,
		{Rater: 6, Ratee: 7, Value: math.Inf(-1), Seq: 7},
		c,
	}
	wantErr := []bool{false, true, true, true, true, false, false, true, false}
	landed := []rating.Rating{a, b, c}

	type route struct {
		name  string
		f     byte
		plain bool
	}
	routes := []route{
		{"primary/plain", 0, true},
		{"primary/entries", 0, false},
		{"replica", persist.FateReplica, false},
		{"deferred", persist.FateDeferred, false},
		{"deferred-replica", persist.FateDeferred | persist.FateReplica, false},
	}
	for _, rt := range routes {
		t.Run(rt.name, func(t *testing.T) {
			s := openTestShard(t, true)
			s.dests[rt.f].recovered.add(owed.Seq)
			var errs []error
			var err error
			if rt.plain {
				errs, err = s.AddPlain(batch)
			} else {
				es := make([]BatchEntry, len(batch))
				for i, r := range batch {
					es[i] = BatchEntry{R: r, Replica: rt.f&persist.FateReplica != 0, Deferred: rt.f&persist.FateDeferred != 0}
				}
				errs, err = s.AddEntries(es)
			}
			if err != nil {
				t.Fatal(err)
			}
			if errs == nil {
				t.Fatal("mixed batch returned no per-entry errors")
			}
			for i, want := range wantErr {
				if (errs[i] != nil) != want {
					t.Errorf("entry %d (%+v): error %v, want failure %v", i, batch[i], errs[i], want)
				}
			}
			if len(s.dests[rt.f].recovered) != 0 {
				t.Errorf("owed seq still pending after its resubmission: %v", s.dests[rt.f].recovered)
			}

			kind := persist.KindRating
			if rt.f != 0 {
				kind = persist.KindFatedRating
			}
			recs := walRecords(t, s)
			if len(recs) != len(landed) {
				t.Fatalf("WAL holds %d records, want %d: %+v", len(recs), len(landed), recs)
			}
			for i, rec := range recs {
				r := landed[i]
				want := persist.Record{Kind: kind, Flags: rt.f, Seq: r.Seq, Rater: int32(r.Rater),
					Ratee: int32(r.Ratee), Cycle: int32(r.Cycle), Category: int32(r.Category), Value: r.Value}
				if rec != want {
					t.Errorf("WAL record %d = %+v, want %+v", i, rec, want)
				}
			}

			if rt.f&persist.FateDeferred != 0 && !slices.Equal(s.dests[rt.f].queue, landed) {
				t.Errorf("deferred queue = %+v, want %+v", s.dests[rt.f].queue, landed)
			}
			ds, err := s.Drain()
			if err != nil {
				t.Fatal(err)
			}
			got, other := ds.Primary, ds.Replica
			if rt.f&persist.FateReplica != 0 {
				got, other = ds.Replica, ds.Primary
			}
			if want := rating.SnapshotOrder(landed); !slices.Equal(got.Ratings, want) {
				t.Errorf("drained %+v, want %+v", got.Ratings, want)
			}
			if len(other.Ratings) != 0 {
				t.Errorf("the other ledger drained %+v, want nothing", other.Ratings)
			}
		})
	}
}

// TestAdmitReplicaOnUnreplicatedShard checks that an unreplicated shard
// fails mirror and deferred-mirror entries instead of journaling them.
func TestAdmitReplicaOnUnreplicatedShard(t *testing.T) {
	s := openTestShard(t, false)
	r := rating.Rating{Rater: 1, Ratee: 2, Value: 1, Seq: 1}
	errs, err := s.AddEntries([]BatchEntry{{R: r, Replica: true}, {R: r, Replica: true, Deferred: true}})
	if err != nil {
		t.Fatal(err)
	}
	if errs == nil || errs[0] == nil || errs[1] == nil {
		t.Fatalf("errors %v, want both entries refused", errs)
	}
	if recs := walRecords(t, s); len(recs) != 0 {
		t.Fatalf("WAL holds %+v, want nothing", recs)
	}
}

// TestAdmitJournalFailureVetoesBatch checks that a failed WAL append vetoes
// every rating of a plain batch that was about to land: each gets the
// append error and none is applied. Entries that failed their own check
// keep their error, and an entry owed to a replay stays acknowledged.
func TestAdmitJournalFailureVetoesBatch(t *testing.T) {
	s := openTestShard(t, false)
	owed := rating.Rating{Rater: 0, Ratee: 1, Value: 1, Seq: 2}
	s.dests[0].recovered.add(owed.Seq)
	if err := s.wal.Close(); err != nil { // every later append fails
		t.Fatal(err)
	}
	batch := []rating.Rating{
		{Rater: 1, Ratee: 2, Value: 1, Seq: 1},
		owed,
		{Rater: 3, Ratee: 3, Value: 1, Seq: 3}, // self-rating
		{Rater: 4, Ratee: 5, Value: -1, Seq: 4},
	}
	errs, err := s.AddPlain(batch)
	if err != nil {
		t.Fatal(err)
	}
	if errs == nil || errs[0] == nil || errs[1] != nil || errs[2] == nil || errs[3] == nil {
		t.Fatalf("errors %v, want the append error on entries 0 and 3, the check's on 2, none on 1", errs)
	}
	if errs[0].Error() != errs[3].Error() || errs[0].Error() == errs[2].Error() {
		t.Fatalf("entries 0 and 3 should share the append error, distinct from the self-rating's: %v", errs)
	}
	ds, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Primary.Ratings) != 0 {
		t.Fatalf("vetoed batch applied %+v", ds.Primary.Ratings)
	}
}

// replayReference is the four-way switch Restart replayed a WAL through
// before one admission check served every destination, over plain slices
// indexed by fate flags. It is FuzzShardReplay's reference. Its ledger adds
// refused what rating.Validate refuses; its queue appends did not, and the
// drain's ledger add dropped those ratings later.
func replayReference(recs []persist.Record, numNodes int, replicated bool, floor, replicaFloor uint64, markRecovered bool) [4][]rating.Rating {
	var out [4][]rating.Rating
	lastMark := -1
	for i := range recs {
		if recs[i].Kind == persist.KindMark {
			lastMark = i
		}
	}
	const d, rp = persist.FateDeferred, persist.FateReplica
	for idx, rec := range recs {
		if rec.Kind != persist.KindRating && rec.Kind != persist.KindFatedRating {
			continue
		}
		fatedLive := markRecovered && idx > lastMark
		r := rating.Rating{Rater: int(rec.Rater), Ratee: int(rec.Ratee), Value: rec.Value,
			Cycle: int(rec.Cycle), Category: int(rec.Category), Seq: rec.Seq}
		if r.Rater < 0 || r.Rater >= numNodes || r.Ratee < 0 || r.Ratee >= numNodes {
			continue
		}
		switch {
		case rec.Kind == persist.KindRating:
			if rec.Seq <= floor || rating.Validate(&r) != nil {
				continue
			}
			out[0] = append(out[0], r)
		case rec.Flags&d != 0 && rec.Flags&rp != 0:
			if !fatedLive || rec.Seq <= replicaFloor || !replicated {
				continue
			}
			out[d|rp] = append(out[d|rp], r)
		case rec.Flags&d != 0:
			if !fatedLive || rec.Seq <= floor {
				continue
			}
			out[d] = append(out[d], r)
		case rec.Flags&rp != 0:
			if !fatedLive || rec.Seq <= replicaFloor || !replicated || rating.Validate(&r) != nil {
				continue
			}
			out[rp] = append(out[rp], r)
		}
	}
	return out
}

// fuzzRecords decodes 7 bytes per record: kind (rating, fated or mark),
// fate flags (all 256 values), Seq, rater and ratee as signed bytes over an
// 8-node population (so both ends go out of range), a value drawn from
// finite, zero and non-finite ones, and cycle/category nibbles.
func fuzzRecords(data []byte) []persist.Record {
	kinds := [3]byte{persist.KindRating, persist.KindFatedRating, persist.KindMark}
	values := [8]float64{1, -1, 0, 0.5, -2, math.NaN(), math.Inf(1), math.Inf(-1)}
	var recs []persist.Record
	for ; len(data) >= 7; data = data[7:] {
		rec := persist.Record{Kind: kinds[data[0]%3], Seq: uint64(data[2])}
		if rec.Kind == persist.KindFatedRating {
			rec.Flags = data[1]
		}
		if rec.Kind != persist.KindMark {
			rec.Rater, rec.Ratee = int32(int8(data[3])), int32(int8(data[4]))
			rec.Value = values[data[5]%8]
			rec.Cycle, rec.Category = int32(data[6]>>4), int32(data[6]&15)
		}
		recs = append(recs, rec)
	}
	return recs
}

// FuzzShardReplay writes arbitrary records to a shard's WAL and restarts
// the shard with arbitrary floors, with and without markRecovered; floors,
// like the records' sequence numbers, are single bytes so that the two
// interleave. Replay
// must not panic, must land only ratings that pass the admission check,
// and must put into every destination what replayReference does (queues
// without the invalid ratings the old drain dropped), registering each
// landed sequence as recovered exactly when markRecovered is set. The drain
// that follows must flush each queue behind its ledger's replayed ratings.
func FuzzShardReplay(f *testing.F) {
	seed := []byte{
		0, 0, 1, 1, 2, 0x10, 0x11, // rating 1→2
		1, 1, 2, 2, 3, 1, 0, // fated replica 2→3, value −1
		2, 0, 3, 0, 0, 0, 0, // mark
		1, 2, 4, 3, 1, 0, 0x21, // fated deferred 3→1
		1, 3, 5, 4, 5, 3, 0, // fated deferred replica 4→5, value 0.5
		1, 0x82, 6, 1, 1, 0, 0, // deferred self-rating, stray flag bit
		1, 2, 7, 1, 2, 5, 0, // deferred NaN
		0, 0, 8, 0xff, 2, 0, 0, // rater −1
		0, 0, 9, 1, 8, 0, 0, // ratee 8
		1, 0, 10, 1, 2, 0, 0, // fated, no destination flag
		1, 1, 11, 2, 1, 6, 0, // replica +Inf
		0, 0, 12, 5, 6, 4, 0, // rating 5→6, value −2
		0, 0, 12, 5, 6, 4, 0, // its duplicate delivery
		1, 2, 0, 6, 7, 0, 0, // unsequenced deferred
	}
	for _, mark := range []bool{true, false} {
		for _, replicated := range []bool{true, false} {
			f.Add(seed, uint8(0), uint8(0), mark, replicated)
			f.Add(seed, uint8(6), uint8(1), mark, replicated)
			f.Add(seed, uint8(1), uint8(6), mark, replicated)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, floor, replicaFloor uint8, markRecovered, replicated bool) {
		s := openTestShard(t, replicated)
		if err := s.wal.Append(fuzzRecords(data)); err != nil {
			t.Fatal(err)
		}
		recs := walRecords(t, s)
		want := replayReference(recs, s.numNodes, replicated, uint64(floor), uint64(replicaFloor), markRecovered)
		for _, q := range []byte{persist.FateDeferred, persist.FateDeferred | persist.FateReplica} {
			want[q] = slices.DeleteFunc(want[q], func(r rating.Rating) bool { return rating.Validate(&r) != nil })
		}
		if err := s.Restart(uint64(floor), uint64(replicaFloor), markRecovered); err != nil {
			t.Fatal(err)
		}
		for fate := range s.dests {
			d := &s.dests[fate]
			if fate&int(persist.FateDeferred) != 0 && !slices.Equal(d.queue, want[fate]) {
				t.Fatalf("destination %d queued %+v, want %+v", fate, d.queue, want[fate])
			}
			wantMarks := map[uint64]int{}
			if markRecovered {
				wantMarks = seqMultiset(want[fate])
			}
			if !sameCounts(d.recovered, wantMarks) {
				t.Fatalf("destination %d recovered %v, want %v", fate, d.recovered, wantMarks)
			}
		}
		ds, err := s.Drain()
		if err != nil {
			t.Fatal(err)
		}
		// The ledgers are read through the drain, which also shows that
		// everything replay landed passes the admission check.
		drained := func(name string, got rating.Snapshot, ledger, queue []rating.Rating) {
			for i := range got.Ratings {
				if s.check(0, &got.Ratings[i]) != nil {
					t.Fatalf("%s drained %+v, which fails the admission check", name, got.Ratings[i])
				}
			}
			if want := rating.SnapshotOrder(ledger, queue); !slices.Equal(got.Ratings, want) {
				t.Fatalf("%s drained %+v, want %+v", name, got.Ratings, want)
			}
		}
		drained("primary", ds.Primary, want[0], want[persist.FateDeferred])
		if ds.HasReplica != replicated {
			t.Fatalf("HasReplica = %v on a shard with replicated = %v", ds.HasReplica, replicated)
		}
		drained("replica", ds.Replica, want[persist.FateReplica], want[persist.FateDeferred|persist.FateReplica])
		if !markRecovered {
			if recs := walRecords(t, s); len(recs) == 0 || recs[len(recs)-1].Kind != persist.KindMark {
				t.Fatal("a restart without markRecovered appended no barrier mark")
			}
		}
	})
}
