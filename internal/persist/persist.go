// Package persist is the durability layer: a length-prefixed, checksummed
// write-ahead log for rating ingest and an atomic snapshot codec for
// interval-boundary state, together supporting crash-restart recovery that
// is bit-identical to an uninterrupted run.
//
// The WAL holds the tail of history since the last snapshot: every rating
// a manager shard admits is appended (and flushed to the OS) before the
// submission is acknowledged, so a process crash — kill -9 included — loses
// nothing that was acknowledged. Snapshots are taken at update-interval
// boundaries, the natural consistency point of the deterministic pipeline:
// ledgers are drained, engines have just updated, and every piece of
// persistent state (history, graph, reputation vectors, RNG positions) is
// quiescent. Recovery loads the last snapshot, replays the WAL tail onto it
// (deduplicating by record sequence number), truncates any torn final
// record, and resumes mid-interval.
//
// Fsync policy: appends are always flushed to the OS (surviving process
// death); fsync to stable storage happens per the configured FsyncPolicy —
// by default at interval marks, snapshot writes, and rotation, so only an
// OS/power failure can lose the tail of the current interval. FsyncAlways
// trades ingest throughput for per-append durability.
package persist

import (
	"errors"

	"socialtrust/internal/obs"
)

// ErrCorruptRecord is wrapped by WAL decode errors: a torn final record
// (partial write at crash), a checksum mismatch, or a malformed frame.
// Recovery treats it as the end of the log — never a panic, never fatal.
var ErrCorruptRecord = errors.New("persist: corrupt WAL record")

// ErrCorruptSnapshot is wrapped by snapshot load errors (bad magic, short
// file, checksum mismatch, undecodable payload).
var ErrCorruptSnapshot = errors.New("persist: corrupt snapshot")

// FsyncPolicy selects when the WAL calls fsync. Appends are buffered-written
// and flushed to the OS regardless, so the policy only matters for
// kernel/power failures, not process crashes.
type FsyncPolicy int

const (
	// FsyncMarks syncs at interval marks and rotation (the default).
	FsyncMarks FsyncPolicy = iota
	// FsyncAlways syncs after every append batch.
	FsyncAlways
	// FsyncNever leaves syncing entirely to the OS.
	FsyncNever
)

// Options parameterizes a WAL. The zero value is usable.
type Options struct {
	Fsync FsyncPolicy
}

// Durability metrics (recorded only while obs is enabled).
var (
	mWALBytes    = obs.C("persist_wal_bytes_total")
	mWALRecords  = obs.C("persist_wal_records_total")
	mWALFsync    = obs.H("persist_wal_fsync_seconds")
	mSnapSeconds = obs.H("persist_snapshot_seconds")
	mSnapBytes   = obs.G("persist_snapshot_bytes")
	mRecoveries  = obs.C("persist_recoveries_total")
	mTruncations = obs.C("persist_wal_truncations_total")
	mErrors      = obs.C("persist_errors_total")
)

func init() {
	obs.Help("persist_wal_bytes_total", "Bytes appended to write-ahead logs (frames included).")
	obs.Help("persist_wal_records_total", "Records appended to write-ahead logs.")
	obs.Help("persist_wal_fsync_seconds", "Latency of WAL fsync calls.")
	obs.Help("persist_snapshot_seconds", "Wall time of one interval-boundary snapshot write (encode, fsync, rename).")
	obs.Help("persist_snapshot_bytes", "Size of the most recent snapshot written.")
	obs.Help("persist_recoveries_total", "Crash-restart recoveries performed (snapshot load plus WAL tail replay).")
	obs.Help("persist_wal_truncations_total", "Torn or corrupt WAL tails truncated during recovery.")
	obs.Help("persist_errors_total", "Durability-layer failures: WAL appends, fsyncs, or snapshot writes that returned errors.")
}
