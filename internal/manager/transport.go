// Transport abstraction: the seam between the overlay and wherever its
// shards live. Every shard is a Shard (shard.go) behind a ShardConn; the
// in-process host (local.go) and the cluster's socket client
// (internal/cluster) both implement it, so the overlay has one delivery path.
//
// The contract:
//
//   - Submit operations return a wait function, so a caller can issue one
//     send per shard and then collect the acknowledgements — the
//     send-all-then-collect overlap submitBatchDirect relies on, and the
//     hook pipelined transports use to keep multiple batches in flight.
//   - Per-entry ledger errors travel inside the reply ([]error, index-
//     aligned, nil when everything landed); transport-level failures are the
//     second return and map onto the overlay's typed errors (a crashed shard
//     or dead connection behaves like ErrShardDown, a lapsed deadline like
//     ErrTimeout).
//   - Crash/Restart/Mark/CompactWAL/ResetWAL drive the shard lifecycle and
//     durability surface: a shard owns its WAL, so the coordinator issues
//     these as operations instead of touching files.
package manager

import (
	"time"

	"socialtrust/internal/obs/span"
	"socialtrust/internal/rating"
)

// BatchEntry is one rating of a fault-mode batched submission, carrying its
// per-rating replica/deferred fate bits.
type BatchEntry struct {
	R        rating.Rating
	Replica  bool // targets the shard's replica mirror ledger
	Deferred bool // delayed delivery: applied at the next drain
}

// DrainSnapshots is one shard's answer to a drain: its primary interval
// snapshot and (fault-tolerant mode) the mirror of its predecessor's.
type DrainSnapshots struct {
	Primary    rating.Snapshot
	Replica    rating.Snapshot
	HasReplica bool
}

// ShardConn is one shard's endpoint. Implementations must be safe for
// concurrent use; the overlay drains all shards concurrently and submits from
// many goroutines. tctx is the caller's trace context, parent of the spans a
// host emits for the operation.
type ShardConn interface {
	// SubmitPlain delivers a plain sub-batch (primary ledger adds only). The
	// returned wait function blocks until the shard acknowledges — there is
	// no deadline, but a dead shard must eventually fail the wait rather
	// than hang forever.
	SubmitPlain(tctx span.Context, rs []rating.Rating) func() ([]error, error)

	// SubmitEntries delivers a fault-mode sub-batch with per-entry fate bits.
	// timeout bounds the wait (zero means no deadline).
	SubmitEntries(tctx span.Context, entries []BatchEntry, timeout time.Duration) func() ([]error, error)

	// Drain flushes the shard's deferred submissions and returns its interval
	// snapshots. timeout bounds the wait (zero means no deadline).
	Drain(tctx span.Context, timeout time.Duration) (DrainSnapshots, error)

	// Crash kills the shard's incarnation: its interval ledgers are
	// discarded, its WAL survives.
	Crash() error

	// Restart installs a fresh incarnation, replaying the shard's primary
	// WAL records and deferred primary records above floor and its mirror
	// records above replicaFloor. With markRecovered set the replayed
	// sequence numbers are registered for duplicate-ack dedupe (the
	// re-delivery path after a process loss).
	Restart(floor, replicaFloor uint64, markRecovered bool) error

	// Mark stamps an interval mark on the shard's WAL (fsync per policy).
	Mark(interval uint64) error

	// CompactWAL rotates the shard's WAL if every record is at or below
	// coveredSeq (the shard's drained high-water mark).
	CompactWAL(coveredSeq uint64) error

	// ResetWAL discards the shard's WAL contents.
	ResetWAL() error
}

// Transport hosts an overlay's shards. Start is called once from
// NewWithOptions — before any Shard endpoint is used — with the overlay
// geometry; Close is called from Overlay.Close. A nil Options.Transport
// means the in-process transport.
type Transport interface {
	Start(numNodes int, replicated bool) error
	// Shard returns shard i's endpoint.
	Shard(i int) ShardConn
	Close() error
}
