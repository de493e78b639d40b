// One manager shard's state machine, shared by both of its hosts: the
// in-process mailbox goroutine (local.go) and the cluster worker's per-shard
// dispatch loop (internal/cluster). A host applies a shard's operations one
// at a time in arrival order, so the type needs no locking.
//
// The shard owns its WAL (when it has one): submissions are journaled before
// they are acknowledged. Primary adds are rating records. Replica-mirror and
// deferred adds are fated records: whole-interval re-execution cannot be
// relied on to rebuild those substrates after a worker process is killed, so
// everything acknowledged is journaled.
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

	down            bool // crashed: fresh state arrives with Restart
	ledger          *rating.Ledger
	replica         *rating.Ledger
	deferred        []rating.Rating
	deferredReplica []rating.Rating
	wal             *persist.WAL
	// recDeferred / recDeferredReplica hold sequence numbers of deferred
	// entries restored from a WAL replay, with multiplicity — the deferred
	// queues' twin of rating.Ledger.MarkRecovered. A resubmitted entry whose
	// Seq is pending here is acknowledged without being queued again.
	recDeferred        map[uint64]int
	recDeferredReplica map[uint64]int
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

// drainCover is one completed drain's coverage marks.
type drainCover struct {
	primaryMax, replicaMax uint64
}

// OpenShard builds shard id with empty ledgers. With stateDir set it opens
// (or creates) <stateDir>/shard-<id>.wal, truncating any torn tail a crash
// left behind (logged as a warning), and journals every accepted rating
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
	s.journal(true)
	return s, nil
}

// reset installs a fresh incarnation's empty interval state, journals
// detached.
func (s *Shard) reset() {
	s.down = false
	s.ledger = rating.NewLedger(s.numNodes)
	s.replica = nil
	if s.replicated {
		s.replica = rating.NewLedger(s.numNodes)
	}
	s.deferred, s.deferredReplica = nil, nil
	s.recDeferred, s.recDeferredReplica = nil, nil
}

// journal attaches (on) or suspends the ledgers' write-ahead hooks.
func (s *Shard) journal(on bool) {
	if s.wal == nil {
		return
	}
	var primary, mirror rating.Journal
	if on {
		primary = walJournal{s.wal, persist.KindRating, 0}
		mirror = walJournal{s.wal, persist.KindFatedRating, persist.FateReplica}
	}
	s.ledger.SetJournal(primary)
	if s.replica != nil {
		s.replica.SetJournal(mirror)
	}
}

// walJournal adapts a persist.WAL to the ledger's write-ahead hook, writing
// records of one kind (fated records carry their fate flags).
type walJournal struct {
	w     *persist.WAL
	kind  byte
	flags byte
}

func (j walJournal) Append(rs []rating.Rating) error {
	recs := make([]persist.Record, len(rs))
	for i, r := range rs {
		recs[i] = persist.Record{
			Kind:     j.kind,
			Flags:    j.flags,
			Seq:      r.Seq,
			Rater:    int32(r.Rater),
			Ratee:    int32(r.Ratee),
			Cycle:    int32(r.Cycle),
			Category: int32(r.Category),
			Value:    r.Value,
		}
	}
	return j.w.Append(recs)
}

func (s *Shard) oob(r rating.Rating) bool {
	return r.Rater < 0 || r.Rater >= s.numNodes || r.Ratee < 0 || r.Ratee >= s.numNodes
}

func (s *Shard) oobErr(r rating.Rating) error {
	return fmt.Errorf("manager: node out of range in %+v (numNodes=%d)", r, s.numNodes)
}

// AddPlain applies a plain sub-batch to the primary ledger. Node ranges are
// checked before the ledger sees them — the ledger panics on out-of-range
// IDs, and neither a caller's bad rating nor a malformed peer may panic a
// host — with invalid entries failed individually. The error slice is
// index-aligned with rs and nil when everything landed; the second return is
// ErrShardDown on a crashed shard.
func (s *Shard) AddPlain(rs []rating.Rating) ([]error, error) {
	if s.down {
		return nil, ErrShardDown
	}
	var errs []error
	valid := rs
	var idx []int
	for i := range rs {
		if s.oob(rs[i]) {
			if errs == nil {
				errs = make([]error, len(rs))
				valid = make([]rating.Rating, 0, len(rs))
				idx = make([]int, 0, len(rs))
				valid = append(valid, rs[:i]...)
				for j := 0; j < i; j++ {
					idx = append(idx, j)
				}
			}
			errs[i] = s.oobErr(rs[i])
			continue
		}
		if errs != nil {
			valid = append(valid, rs[i])
			idx = append(idx, i)
		}
	}
	res := s.ledger.AddBatch(valid)
	if res == nil {
		return errs, nil
	}
	if errs == nil {
		return res, nil
	}
	for x, e := range res {
		if e != nil {
			errs[idx[x]] = e
		}
	}
	return errs, nil
}

// AddEntries applies a fault-mode sub-batch, honoring each entry's
// replica/deferred fate bits. Deferred entries are acknowledged on receipt
// and applied at the next drain.
func (s *Shard) AddEntries(es []BatchEntry) ([]error, error) {
	if s.down {
		return nil, ErrShardDown
	}
	var errs []error
	fail := func(i int, err error) {
		if errs == nil {
			errs = make([]error, len(es))
		}
		errs[i] = err
	}
	for i, e := range es {
		if s.oob(e.R) {
			fail(i, s.oobErr(e.R))
			continue
		}
		switch {
		case e.Deferred:
			queue, rec, flags := &s.deferred, s.recDeferred, persist.FateDeferred
			if e.Replica {
				queue, rec, flags = &s.deferredReplica, s.recDeferredReplica, persist.FateDeferred|persist.FateReplica
			}
			if consumeRecovered(rec, e.R.Seq) {
				continue // restored from the WAL; acknowledge without requeueing
			}
			if s.wal != nil {
				if err := (walJournal{s.wal, persist.KindFatedRating, flags}).Append([]rating.Rating{e.R}); err != nil {
					fail(i, err)
					continue
				}
			}
			*queue = append(*queue, e.R)
		case e.Replica:
			if s.replica == nil {
				fail(i, fmt.Errorf("manager: replica entry on unreplicated shard %d", s.id))
				continue
			}
			// The replica ledger's fated journal records the entry before it
			// is acknowledged, and its recovered set absorbs resubmissions of
			// WAL-restored entries.
			if err := s.replica.Add(e.R); err != nil {
				fail(i, err)
			}
		default:
			if err := s.ledger.Add(e.R); err != nil {
				fail(i, err)
			}
		}
	}
	return errs, nil
}

// consumeRecovered consumes one pending occurrence of seq from a deferred
// recovered-multiset, reporting whether it was pending.
func consumeRecovered(m map[uint64]int, seq uint64) bool {
	if seq == 0 || m == nil {
		return false
	}
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

// Drain flushes deferred submissions into the ledgers and snapshots the
// interval: the primary ledger and, when replicated, the mirror of the
// predecessor's primary.
func (s *Shard) Drain() (DrainSnapshots, error) {
	if s.down {
		return DrainSnapshots{}, ErrShardDown
	}
	// Deferred entries were journaled as fated records when they were
	// accepted; flushing them into the interval ledgers must not journal them
	// a second time, so the write-ahead hooks are suspended for the flush.
	s.journal(false)
	defer s.journal(true)
	for _, r := range s.deferred {
		_ = s.ledger.Add(r) // validated at submit time
	}
	s.deferred = s.deferred[:0]
	ds := DrainSnapshots{Primary: s.ledger.EndInterval()}
	if s.replica != nil {
		for _, r := range s.deferredReplica {
			_ = s.replica.Add(r)
		}
		s.deferredReplica = s.deferredReplica[:0]
		ds.Replica, ds.HasReplica = s.replica.EndInterval(), true
	}
	if s.wal != nil {
		s.drainCovers = append(s.drainCovers, drainCover{ds.Primary.MaxSeq, ds.Replica.MaxSeq})
	}
	return ds, nil
}

// Crash kills the incarnation: its interval ledgers are discarded. The WAL
// stays open — it is the durability mechanism, and Restart replays its
// recoverable tail.
func (s *Shard) Crash() {
	s.down = true
	s.ledger, s.replica = nil, nil
	s.deferred, s.deferredReplica = nil, nil
	s.recDeferred, s.recDeferredReplica = nil, nil
}

// Restart installs a fresh incarnation: empty ledgers, and the WAL's
// recoverable tail replayed before the journals are reattached. Primary
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
// resume), above replicaFloor for the mirror and floor for the deferred
// primary queue. Every replayed sequence is then registered as recovered, so
// the re-delivered duplicates are acknowledged without double-counting.
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
			lastMark = i
			lastMarkVal = recs[i].Seq
		}
	}
	var recovered, recReplica map[uint64]int
	note := func(m *map[uint64]int, seq uint64) {
		if markRecovered {
			if *m == nil {
				*m = make(map[uint64]int)
			}
			(*m)[seq]++
		}
	}
	for idx, rec := range recs {
		if rec.Kind != persist.KindRating && rec.Kind != persist.KindFatedRating {
			continue
		}
		fatedLive := markRecovered && idx > lastMark
		r := rating.Rating{
			Rater:    int(rec.Rater),
			Ratee:    int(rec.Ratee),
			Value:    rec.Value,
			Cycle:    int(rec.Cycle),
			Category: int(rec.Category),
			Seq:      rec.Seq,
		}
		if s.oob(r) {
			continue // defensive: never panic on a corrupt record
		}
		switch {
		case rec.Kind == persist.KindRating:
			if rec.Seq <= floor {
				continue
			}
			if err := s.ledger.Add(r); err != nil {
				continue
			}
			note(&recovered, rec.Seq)
		case rec.Flags&persist.FateDeferred != 0 && rec.Flags&persist.FateReplica != 0:
			if !fatedLive || rec.Seq <= replicaFloor || s.replica == nil {
				continue
			}
			s.deferredReplica = append(s.deferredReplica, r)
			note(&s.recDeferredReplica, rec.Seq)
		case rec.Flags&persist.FateDeferred != 0:
			if !fatedLive || rec.Seq <= floor {
				continue
			}
			s.deferred = append(s.deferred, r)
			note(&s.recDeferred, rec.Seq)
		case rec.Flags&persist.FateReplica != 0:
			if !fatedLive || rec.Seq <= replicaFloor || s.replica == nil {
				continue
			}
			if err := s.replica.Add(r); err != nil {
				continue
			}
			note(&recReplica, rec.Seq)
		}
	}
	if len(recovered) > 0 {
		s.ledger.MarkRecovered(recovered)
	}
	if len(recReplica) > 0 {
		s.replica.MarkRecovered(recReplica)
	}
	s.journal(true)
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
