// Manager-side durability: with Options.StateDir each shard journals to a
// per-shard write-ahead log (shard.go), and the overlay exposes the recovery
// surface the simulator's crash-restart path drives — drained sequence
// high-water marks for snapshots, WAL replay on shard restart, and
// whole-process Resume.
//
// The dedupe key is the rating's ingest sequence number (rating.Rating.Seq,
// assigned by the producer before submission). A drain's snapshot carries the
// max Seq it drained; the overlay keeps, per shard, the highest such mark
// ever applied on that shard's behalf (primary drain or replica
// substitution). WAL records at or below the mark are covered by completed
// drains; records above it are the shard's recoverable tail. The marks are
// the replay floors every Restart carries, wherever the shard lives.
package manager

import "fmt"

// noteDrained raises shard i's drained high-water mark. Callers hold o.mu.
func (o *Overlay) noteDrained(i int, maxSeq uint64) {
	if maxSeq > o.drainedSeq[i] {
		o.drainedSeq[i] = maxSeq
	}
}

// noteReplicaDrained raises shard i's replica-drain high-water mark — the
// replay floor for the fated records backing the replica mirror and deferred
// queues shard i hosts. Callers hold o.mu.
func (o *Overlay) noteReplicaDrained(i int, maxSeq uint64) {
	if maxSeq > o.replicaSeq[i] {
		o.replicaSeq[i] = maxSeq
	}
}

// DrainedSeqs returns the per-shard drained sequence high-water marks — the
// values an interval-boundary snapshot must record so a restarted process can
// tell which WAL records completed drains already cover.
func (o *Overlay) DrainedSeqs() []uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]uint64(nil), o.drainedSeq...)
}

// ResetWALs discards all shard WAL contents. The simulator calls it when a
// state directory holds no snapshot (a fresh run over a possibly stale
// directory): with no snapshot to anchor them, leftover records are
// meaningless.
func (o *Overlay) ResetWALs() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, s := range o.shards {
		if err := s.ResetWAL(); err != nil {
			return err
		}
	}
	for i := range o.drainedSeq {
		o.drainedSeq[i] = 0
	}
	return nil
}

// CompactWALs rotates every shard WAL whose records are all covered by
// completed drains — i.e. by the snapshot the caller just wrote. A WAL still
// holding records above its shard's drained mark (a crashed shard's
// recoverable tail, awaiting its restart replay) is kept; the shard compares
// the mark against its own WAL. Call at a quiescent point, after a successful
// snapshot write; crash between snapshot and compaction is safe because
// replay filters by sequence number.
func (o *Overlay) CompactWALs() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	for i, s := range o.shards {
		if err := s.CompactWAL(o.drainedSeq[i]); err != nil {
			return err
		}
	}
	return nil
}

// Resume restores the overlay from an interval-boundary snapshot taken by a
// previous process: per-shard drained marks, the reputation vector to serve,
// and lastSeq — the global ingest sequence high-water at the snapshot
// boundary. It must run on a freshly constructed overlay, before any traffic,
// with the fault plan's state (if any) already imported.
//
// Shards the restored fault plan holds down are crashed; their WAL tails
// replay later, at their scheduled restart — exactly when the uninterrupted
// run would have replayed them. Live shards restart with markRecovered,
// replaying only records above lastSeq: the acknowledged tail of the
// interrupted interval. Those replayed sequences are registered as recovered
// so the deterministically re-executed interval's duplicate submissions are
// acknowledged without double-counting.
func (o *Overlay) Resume(drainedSeqs []uint64, lastSeq uint64, reps []float64) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.opts.Transport != nil {
		// Whole-process snapshot resume is a coordinator-side feature; remote
		// shards recover through their own WALs (Restart replay), not
		// through Resume. The simulator rejects state-dir + cluster up front.
		return fmt.Errorf("manager: Resume is not supported with a transport")
	}
	if o.opts.StateDir == "" {
		return fmt.Errorf("manager: Resume requires a state directory")
	}
	if len(drainedSeqs) != len(o.shards) {
		return fmt.Errorf("manager: resume state for %d shards, overlay has %d", len(drainedSeqs), len(o.shards))
	}
	if len(reps) != o.numNodes {
		return fmt.Errorf("manager: resume vector for %d nodes, overlay has %d", len(reps), o.numNodes)
	}
	copy(o.drainedSeq, drainedSeqs)
	o.publish(reps)
	for i, s := range o.shards {
		if o.plan != nil && o.plan.Down(i) {
			o.crashShardLocked(i)
			continue
		}
		if err := s.Restart(max(o.drainedSeq[i], lastSeq), lastSeq, true); err != nil {
			return err
		}
	}
	return nil
}
