// One manager shard's state machine, shared by both of its hosts: the
// in-process mailbox goroutine (local.go) and the cluster worker's per-shard
// dispatch loop (internal/cluster). A host applies a shard's operations one
// at a time in arrival order, so the type needs no locking.
//
// Every rating enters through one admission rule (admit): check it,
// acknowledge without applying a resubmission that a WAL replay already
// restored, journal the rest before acknowledging them, then apply them. The
// rule serves the four destinations the WAL's fate flags name — the primary
// ledger, the replica mirror, and the deferred queue of each — and Restart
// replays every record back to its destination under the same check. Primary
// adds are rating records; the others are fated records, because
// whole-interval re-execution cannot be relied on to rebuild those
// substrates after a worker process is killed.
package manager

import (
	"fmt"
	"os"
	"path/filepath"

	"socialtrust/internal/obs"
	"socialtrust/internal/persist"
	"socialtrust/internal/rating"
)

// Shard is one resource manager's shard: its interval ledger, the replica
// mirror and deferred queues of fault-tolerant mode, and optionally its WAL.
// A crash is a state of the shard, not a dead goroutine: a crashed shard
// refuses submissions and drains until Restart rebuilds it.
type Shard struct {
	id         int
	numNodes   int
	replicated bool

	down bool // crashed: fresh state arrives with Restart
	// dests are the destinations of admitted ratings, indexed by their WAL
	// fate flags: the primary ledger (0), the replica mirror (FateReplica),
	// and their deferred queues (FateDeferred, FateDeferred|FateReplica).
	dests [4]dest
	wal   *persist.WAL
	// drainCovers records, per completed local drain, the primary and replica
	// snapshot high-water marks. A CompactWAL floor at or above a cover's
	// primary mark proves the coordinator received that drain, so fated
	// records up to its replica mark are safe to rotate away.
	drainCovers []drainCover
	// retiredFated is the fated high-water mark at the last barrier a
	// coordinator restart appended: fated records before a barrier never
	// replay, so compaction need not wait for a drain to cover them.
	retiredFated uint64
}

// dest is one destination. The primary and the mirror hold an interval
// ledger (the mirror only on a replicated shard); a deferred destination
// holds a queue that the next drain flushes into the ledger of
// dests[f&^FateDeferred]. recovered holds the sequence numbers a WAL replay
// restored into the destination: a resubmission carrying one is
// acknowledged without landing a second time.
type dest struct {
	ledger    *rating.Ledger
	queue     []rating.Rating
	recovered seqCounts
}

// seqCounts is a multiset of sequence numbers. Fault injection can
// legitimately deliver a rating twice, so a replay may restore a Seq more
// than once.
type seqCounts map[uint64]int

// add records one occurrence of seq; zero, the unsequenced Seq, is never
// recorded.
func (m *seqCounts) add(seq uint64) {
	if seq == 0 {
		return
	}
	if *m == nil {
		*m = make(seqCounts)
	}
	(*m)[seq]++
}

// take consumes one occurrence of seq, reporting whether there was one.
func (m seqCounts) take(seq uint64) bool {
	n := m[seq]
	if n == 0 {
		return false
	}
	if n == 1 {
		delete(m, seq)
	} else {
		m[seq] = n - 1
	}
	return true
}

// drainCover is one completed drain's coverage marks.
type drainCover struct {
	primaryMax, replicaMax uint64
}

// OpenShard builds shard id with empty ledgers. With stateDir set it opens
// (or creates) <stateDir>/shard-<id>.wal, truncating any torn tail a crash
// left behind (logged as a warning), and journals every admitted rating
// there.
func OpenShard(id, numNodes int, replicated bool, stateDir string, opts persist.Options) (*Shard, error) {
	s := &Shard{id: id, numNodes: numNodes, replicated: replicated}
	if stateDir != "" {
		if err := os.MkdirAll(stateDir, 0o755); err != nil {
			return nil, err
		}
		w, rec, err := persist.Open(filepath.Join(stateDir, fmt.Sprintf("shard-%d.wal", id)), opts)
		if err != nil {
			return nil, err
		}
		if rec.Corrupt != nil {
			obs.Logger().Warn("shard WAL had a torn tail; truncated to last valid record",
				"shard", id, "bytes", rec.TruncatedBytes, "err", rec.Corrupt)
		}
		s.wal = w
	}
	s.reset()
	return s, nil
}

// reset installs a fresh incarnation's empty interval state.
func (s *Shard) reset() {
	s.down = false
	s.dests = [4]dest{{ledger: rating.NewLedger(s.numNodes)}}
	if s.replicated {
		s.dests[persist.FateReplica].ledger = rating.NewLedger(s.numNodes)
	}
}

// check is the admission test of a rating bound for destination f: node IDs
// in range (a ledger panics on them, and neither a caller's bad rating nor a
// malformed peer or WAL record may panic a host), a mirror only on a
// replicated shard, and rating.Validate.
func (s *Shard) check(f byte, r *rating.Rating) error {
	if r.Rater < 0 || r.Rater >= s.numNodes || r.Ratee < 0 || r.Ratee >= s.numNodes {
		return fmt.Errorf("manager: node out of range in %+v (numNodes=%d)", *r, s.numNodes)
	}
	if f&persist.FateReplica != 0 && !s.replicated {
		return fmt.Errorf("manager: replica entry on unreplicated shard %d", s.id)
	}
	return rating.Validate(r)
}

// admit is the shard's one ingest rule, for ratings bound for destination
// f. Each rating is checked and failed on its own, and one whose Seq the
// destination is owed from a WAL replay is acknowledged without landing
// again. The rest are journaled in one WAL append of f's record kind and
// fate flags — a failed append vetoes all of them — and then land. The
// result is index-aligned with rs and nil when every rating was
// acknowledged.
func (s *Shard) admit(f byte, rs []rating.Rating) []error {
	d := &s.dests[f]
	var errs []error
	var out []bool // entries that do not land: failed, or owed to a replay
	for i := range rs {
		err := s.check(f, &rs[i])
		if err != nil {
			errs = failAt(errs, len(rs), i, err)
		}
		if err != nil || d.recovered.take(rs[i].Seq) {
			if out == nil {
				out = make([]bool, len(rs))
			}
			out[i] = true
		}
	}
	batch := rs
	if out != nil {
		batch = make([]rating.Rating, 0, len(rs))
		for i := range rs {
			if !out[i] {
				batch = append(batch, rs[i])
			}
		}
	}
	if len(batch) == 0 {
		return errs
	}
	if err := s.journal(f, batch); err != nil {
		err = fmt.Errorf("manager: journal append: %w", err)
		for i := range rs {
			if out == nil || !out[i] {
				errs = failAt(errs, len(rs), i, err)
			}
		}
		return errs
	}
	s.land(f, batch)
	return errs
}

// failAt sets errs[i], first allocating errs index-aligned with n entries.
func failAt(errs []error, n, i int, err error) []error {
	if errs == nil {
		errs = make([]error, n)
	}
	errs[i] = err
	return errs
}

// journal appends rs to the WAL, if the shard has one, as records of
// destination f: rating records for the primary ledger, fated records
// carrying f for the others.
func (s *Shard) journal(f byte, rs []rating.Rating) error {
	if s.wal == nil {
		return nil
	}
	kind := persist.KindRating
	if f != 0 {
		kind = persist.KindFatedRating
	}
	recs := make([]persist.Record, len(rs))
	for i, r := range rs {
		recs[i] = persist.Record{
			Kind:     kind,
			Flags:    f,
			Seq:      r.Seq,
			Rater:    int32(r.Rater),
			Ratee:    int32(r.Ratee),
			Cycle:    int32(r.Cycle),
			Category: int32(r.Category),
			Value:    r.Value,
		}
	}
	return s.wal.Append(recs)
}

// land applies checked ratings to destination f: a deferred queue append,
// or a ledger add.
func (s *Shard) land(f byte, rs []rating.Rating) {
	d := &s.dests[f]
	if f&persist.FateDeferred != 0 {
		d.queue = append(d.queue, rs...)
		return
	}
	d.ledger.AddBatch(rs) // every rating already passed check
}

// AddPlain admits a plain sub-batch to the primary ledger. Invalid entries
// fail individually; the error slice is index-aligned with rs and nil when
// everything landed. The second return is ErrShardDown on a crashed shard.
func (s *Shard) AddPlain(rs []rating.Rating) ([]error, error) {
	if s.down {
		return nil, ErrShardDown
	}
	return s.admit(0, rs), nil
}

// AddEntries admits a fault-mode sub-batch one entry at a time, each to the
// destination its replica/deferred fate bits name. Deferred entries are
// acknowledged on receipt and applied at the next drain.
func (s *Shard) AddEntries(es []BatchEntry) ([]error, error) {
	if s.down {
		return nil, ErrShardDown
	}
	var errs []error
	for i := range es {
		if res := s.admit(es[i].fate(), []rating.Rating{es[i].R}); res != nil {
			errs = failAt(errs, len(es), i, res[0])
		}
	}
	return errs, nil
}

// fate is the destination an entry names, as WAL fate flags.
func (e BatchEntry) fate() byte {
	var f byte
	if e.Replica {
		f |= persist.FateReplica
	}
	if e.Deferred {
		f |= persist.FateDeferred
	}
	return f
}

// Drain flushes deferred submissions into the ledgers and snapshots the
// interval: the primary ledger and, when replicated, the mirror of the
// predecessor's primary.
func (s *Shard) Drain() (DrainSnapshots, error) {
	if s.down {
		return DrainSnapshots{}, ErrShardDown
	}
	ds := DrainSnapshots{Primary: s.drain(0)}
	if s.replicated {
		ds.Replica, ds.HasReplica = s.drain(persist.FateReplica), true
	}
	if s.wal != nil {
		s.drainCovers = append(s.drainCovers, drainCover{ds.Primary.MaxSeq, ds.Replica.MaxSeq})
	}
	return ds, nil
}

// drain flushes ledger destination f's deferred queue into its ledger and
// snapshots the ledger. The queued ratings were journaled when they were
// admitted, so the flush journals nothing.
func (s *Shard) drain(f byte) rating.Snapshot {
	q, l := &s.dests[f|persist.FateDeferred], s.dests[f].ledger
	l.AddBatch(q.queue)
	q.queue = q.queue[:0]
	return l.EndInterval()
}

// Crash kills the incarnation: its interval ledgers and queues are
// discarded. The WAL stays open — it is the durability mechanism, and
// Restart replays its recoverable tail.
func (s *Shard) Crash() {
	s.down = true
	s.dests = [4]dest{}
}

// recordFate names the destination a WAL record replays into: the primary
// ledger for a rating record, the one its replica and deferred flags name
// for a fated record. Marks, and fated records carrying neither flag, replay
// nowhere.
func recordFate(rec *persist.Record) (byte, bool) {
	switch rec.Kind {
	case persist.KindRating:
		return 0, true
	case persist.KindFatedRating:
		f := rec.Flags & (persist.FateReplica | persist.FateDeferred)
		return f, f != 0
	}
	return 0, false
}

// Restart installs a fresh incarnation: empty ledgers and queues, into which
// the WAL's recoverable tail replays, each record to the destination its
// kind and flags name and only if it passes the admission check. Primary
// records replay above floor.
//
// Fated records (replica mirror, deferred queues) describe per-interval
// state: every drain flushes and discards them, so a record from a completed
// interval is dead no matter what its sequence number says relative to the
// drain floors — the floors only advance through drain replies and can lag
// arbitrarily while this shard or its mirrored shard is down. Interval
// boundaries are recovered from the WAL itself: fated records positioned
// before the last mark belong to drained intervals and never replay. They
// replay only when markRecovered is set (a reconnect resync or a whole-process
// resume), above replicaFloor for the mirror and its queue and above floor
// for the primary queue. Every replayed sequence is then registered as
// recovered with its destination, so the re-delivered duplicates are
// acknowledged without double-counting.
//
// A restart without markRecovered is a coordinator-initiated incarnation
// crash: the mirror and deferred queues are rebuilt empty, and a barrier mark
// is appended so a later resync cannot resurrect records the dead
// incarnation owned.
func (s *Shard) Restart(floor, replicaFloor uint64, markRecovered bool) error {
	s.reset()
	if s.wal == nil {
		return nil
	}
	recs, _ := s.wal.ReadBack()
	lastMark := -1
	var lastMarkVal uint64
	for i := range recs {
		if recs[i].Kind == persist.KindMark {
			lastMark, lastMarkVal = i, recs[i].Seq
		}
	}
	for i := range recs {
		rec := &recs[i]
		f, ok := recordFate(rec)
		above := floor
		if f&persist.FateReplica != 0 {
			above = replicaFloor
		}
		// A fated record replays only into a resync, and only past the last
		// mark.
		if !ok || rec.Seq <= above || f != 0 && (!markRecovered || i < lastMark) {
			continue
		}
		r := rating.Rating{
			Rater:    int(rec.Rater),
			Ratee:    int(rec.Ratee),
			Value:    rec.Value,
			Cycle:    int(rec.Cycle),
			Category: int(rec.Category),
			Seq:      rec.Seq,
		}
		if s.check(f, &r) != nil {
			continue
		}
		s.land(f, []rating.Rating{r})
		if markRecovered {
			s.dests[f].recovered.add(r.Seq)
		}
	}
	if markRecovered {
		return nil
	}
	s.retiredFated = s.wal.MaxFatedSeq()
	return s.wal.AppendMark(lastMarkVal)
}

// Mark stamps an interval mark on the WAL (fsync per policy): the tail of a
// completed interval reaches stable storage before the caller snapshots
// against it.
func (s *Shard) Mark(interval uint64) error {
	if s.wal == nil {
		return nil
	}
	return s.wal.AppendMark(interval)
}

// CompactWAL rotates the WAL if every record is covered: primary records by
// floor (the shard's drained high-water mark), fated records by a drain the
// coordinator provably received or by a restart barrier. A WAL still holding
// a recoverable tail is kept.
func (s *Shard) CompactWAL(floor uint64) error {
	if s.wal == nil || s.wal.MaxSeq() > floor || !s.fatedCovered(floor) {
		return nil
	}
	return s.ResetWAL()
}

// fatedCovered reports whether every fated record in the WAL is covered: a
// compact floor at or above a drain cover's primary mark implies that drain's
// reply landed, so its replica mark bounds the fated records it covered.
func (s *Shard) fatedCovered(floor uint64) bool {
	covered := s.retiredFated
	for _, c := range s.drainCovers {
		if c.primaryMax > 0 && c.primaryMax <= floor && c.replicaMax > covered {
			covered = c.replicaMax
		}
	}
	return s.wal.MaxFatedSeq() <= covered
}

// ResetWAL discards the WAL contents.
func (s *Shard) ResetWAL() error {
	if s.wal == nil {
		return nil
	}
	s.drainCovers, s.retiredFated = nil, 0
	return s.wal.Rotate()
}

// Close syncs and closes the WAL.
func (s *Shard) Close() error {
	if s.wal == nil {
		return nil
	}
	if err := s.wal.Sync(); err != nil {
		_ = s.wal.Close()
		return err
	}
	return s.wal.Close()
}
