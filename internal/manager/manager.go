// Package manager implements the paper's resource-manager overlay
// (Section 4.3): "one or a number of trustworthy nodes function as resource
// managers. Each resource manager is responsible for collecting the ratings
// and calculating the global reputation of certain nodes."
//
// The overlay shards the peer population across managers by ratee ID. Each
// shard is one Shard state machine (shard.go) — its interval ledger, plus a
// replica mirror in fault-tolerant mode, plus an optional WAL — reached
// through a ShardConn. The in-process host runs every shard on its own
// mailbox goroutine; internal/cluster hosts them in worker processes behind
// a socket. Either way the overlay has one submit path, SubmitBatch, with or
// without a fault plan. At the end of each reputation-update interval the
// coordinator drains every shard, merges the snapshots, runs the
// (optionally SocialTrust-wrapped) reputation engine — the paper's periodic
// global reputation calculation — and publishes the fresh vector, which
// serves every reputation query.
//
// # Failure model
//
// The paper assumes managers are trustworthy and always available; this
// implementation drops the availability half of that assumption. With a
// fault plan installed (Options.Fault, see internal/fault), the overlay runs
// in fault-tolerant mode:
//
//   - every submission is mirrored to a replica ledger on the successor
//     shard (ratee's shard p primary, (p+1) mod k replica), so one shard
//     crash loses no interval data;
//   - every delivery draws a drop verdict from the plan, carries a deadline,
//     and is retried with bounded exponential backoff when it was dropped or
//     timed out; both submissions and queries fail over to the replica shard
//     when the primary is down;
//   - EndInterval degrades gracefully: it drains whatever shards answer
//     within the drain deadline, substitutes replica mirrors for crashed
//     primaries, scores partial drains in manager_drain_partial_total, and
//     never blocks on a dead shard.
//
// Without a plan the overlay behaves exactly as the seed implementation
// (single ledger per shard, no mirroring, no timeouts) except that a dead
// shard now yields typed ErrShardDown/ErrTimeout errors instead of
// deadlocking callers.
package manager

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"socialtrust/internal/fault"
	"socialtrust/internal/obs"
	"socialtrust/internal/obs/event"
	"socialtrust/internal/obs/span"
	"socialtrust/internal/rating"
	"socialtrust/internal/reputation"
)

// Overlay metrics (recorded only while obs is enabled). Per-shard mailbox
// depth is exported as manager_mailbox_depth{shard="N"} gauges, refreshed by
// each in-process shard after every operation it handles.
var (
	mSubmitTotal  = obs.C("manager_submit_total")
	mSubmitErrors = obs.C("manager_submit_errors_total")
	mQueryTotal   = obs.C("manager_query_total")
	mDrainTotal   = obs.C("manager_drain_total")
	mSubmitLat    = obs.H("manager_submit_seconds")
	mQueryLat     = obs.H("manager_query_seconds")
	mBatchSize    = obs.H("manager_submit_batch_size", 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096)

	// Fault-tolerance metrics.
	mRetries      = obs.C("manager_submit_retries_total")
	mFailovers    = obs.C("manager_submit_failover_total")
	mCrashes      = obs.C("manager_shard_crashes_total")
	mRestarts     = obs.C("manager_shard_restarts_total")
	mDrainPartial = obs.C("manager_drain_partial_total")
	mDrainReplica = obs.C("manager_drain_replica_total")
	mShards       = obs.G("manager_shards")
	mShardsDown   = obs.G("manager_shards_down")

	// mActivePairs is the per-drain distribution of distinct active
	// (rater, ratee) pairs — the interval's activity footprint, the quantity
	// the incremental engine's cost is proportional to.
	mActivePairs = obs.H("manager_interval_active_pairs",
		1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144)
)

func init() {
	obs.Help("manager_submit_total", "Ratings accepted by the overlay (Submit and SubmitBatch).")
	obs.Help("manager_submit_errors_total", "Rating submissions rejected or failed after retries.")
	obs.Help("manager_query_total", "Reputation queries served by the overlay.")
	obs.Help("manager_drain_total", "Update-interval drains executed (EndInterval calls).")
	obs.Help("manager_drain_seconds", "Wall time of one update-interval drain (collection, merge, engine update).")
	obs.Help("manager_submit_seconds", "Latency of one SubmitBatch call (Submit is a one-rating batch).")
	obs.Help("manager_query_seconds", "Latency of one reputation query against the published vector.")
	obs.Help("manager_submit_batch_size", "Per-shard batch sizes delivered by SubmitBatch.")
	obs.Help("manager_mailbox_depth", "Pending operations in each in-process shard's mailbox.")
	obs.Help("manager_submit_retries_total", "Submission delivery retries after timeouts.")
	obs.Help("manager_submit_failover_total", "Submissions redirected to the replica holder of a crashed shard.")
	obs.Help("manager_shard_crashes_total", "Shard crashes injected or observed.")
	obs.Help("manager_shard_restarts_total", "Crashed shards restarted at interval boundaries.")
	obs.Help("manager_drain_partial_total", "Interval drains that lost at least one shard's ratings.")
	obs.Help("manager_drain_replica_total", "Shard intervals recovered from replica mirrors during a drain.")
	obs.Help("manager_shards", "Shards in the overlay (set once at construction).")
	obs.Help("manager_shards_down", "Shards currently crashed and awaiting restart.")
	obs.Help("manager_interval_active_pairs", "Distinct active rater-ratee pairs per interval drain.")
}

// Options tunes the overlay's fault-tolerance machinery. The zero Options
// reproduces the seed overlay: no replication, no timeouts, no fault plan.
type Options struct {
	// Fault installs a fault-injection plan (message drops and shard
	// crash/restart schedules). A non-nil plan — even one injecting nothing,
	// see fault.Config.AlwaysOn — switches the overlay into fault-tolerant
	// mode: replica mirroring, retry/failover on Submit and Query, and
	// drain-deadline degradation in EndInterval.
	Fault *fault.Plan

	// SubmitTimeout bounds one submission delivery attempt (default 5ms);
	// DrainTimeout one shard's drain in EndInterval (default 100ms).
	SubmitTimeout time.Duration
	DrainTimeout  time.Duration

	// RetryAttempts is the per-target delivery attempt budget (default 3);
	// RetryBackoff the base sleep between attempts, doubling each retry
	// (default 200µs).
	RetryAttempts int
	RetryBackoff  time.Duration

	// StateDir enables the durability layer for in-process shards: each
	// shard journals to <StateDir>/shard-<i>.wal before acknowledging
	// submissions, and the overlay exposes the crash-restart recovery
	// surface (DrainedSeqs, Resume, CompactWALs). Empty disables
	// persistence. It cannot be combined with Transport.
	StateDir string

	// Transport, when non-nil, hosts the shards out of process (see
	// internal/cluster for the socket implementation); nil hosts them
	// in-process. Transport-hosted shards own their WALs, and the overlay
	// keeps their drained high-water marks so crash/restart replay floors
	// travel with the Restart operation.
	Transport Transport
}

func (o Options) withDefaults() Options {
	if o.SubmitTimeout <= 0 {
		o.SubmitTimeout = 5 * time.Millisecond
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 100 * time.Millisecond
	}
	if o.RetryAttempts <= 0 {
		o.RetryAttempts = 3
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 200 * time.Microsecond
	}
	return o
}

// Overlay is a running resource-manager overlay.
type Overlay struct {
	numNodes  int
	shards    []ShardConn
	transport Transport
	engine    reputation.Engine
	opts      Options
	plan      *fault.Plan // nil = seed behavior

	// down is each shard's crash flag, the overlay's only down signal: set
	// by a crash, cleared by the restart. reps is the published reputation
	// vector every query reads.
	down []atomic.Bool
	reps atomic.Pointer[[]float64]

	mu     sync.Mutex // guards engine updates, shard lifecycle, and Close
	closed chan struct{}
	once   sync.Once

	// Per-shard drained sequence high-water marks (the WAL replay floors of
	// primary records), replica-drain marks (the floors of the fated records
	// a shard journals), and the interval counter stamped on WAL marks. All
	// guarded by mu.
	drainedSeq []uint64
	replicaSeq []uint64
	intervals  uint64
}

// Typed overlay errors.
var (
	// ErrClosed is returned by operations on a closed overlay.
	ErrClosed = errors.New("manager: overlay is closed")
	// ErrShardDown is returned when the responsible shard (and, in
	// fault-tolerant mode, its replica) has crashed.
	ErrShardDown = errors.New("manager: shard is down")
	// ErrTimeout is returned when a request's deadline lapsed before the
	// shard acknowledged it (including simulated-time loss of a dropped
	// message under fault injection).
	ErrTimeout = errors.New("manager: request timed out")
)

// New starts an overlay of numManagers in-process shards fronting the given
// reputation engine. The engine may be a bare baseline or a
// SocialTrust-wrapped one; the overlay treats it as the global reputation
// calculation of the paper's design.
func New(numNodes, numManagers int, engine reputation.Engine) (*Overlay, error) {
	return NewWithOptions(numNodes, numManagers, engine, Options{})
}

// NewWithOptions starts an overlay with explicit fault-tolerance options.
func NewWithOptions(numNodes, numManagers int, engine reputation.Engine, opts Options) (*Overlay, error) {
	if numNodes <= 0 {
		return nil, fmt.Errorf("manager: numNodes must be positive")
	}
	if numManagers <= 0 || numManagers > numNodes {
		return nil, fmt.Errorf("manager: numManagers %d invalid for %d nodes", numManagers, numNodes)
	}
	if engine == nil {
		return nil, fmt.Errorf("manager: engine is required")
	}
	if opts.Fault != nil && opts.Fault.Shards() != numManagers {
		return nil, fmt.Errorf("manager: fault plan built for %d shards, overlay has %d",
			opts.Fault.Shards(), numManagers)
	}
	if opts.StateDir != "" && opts.Transport != nil {
		return nil, fmt.Errorf("manager: StateDir applies to in-process shards; a Transport's shards own their WALs")
	}
	t := opts.Transport
	if t == nil {
		t = newLocalTransport(numManagers, opts.StateDir)
	}
	if err := t.Start(numNodes, opts.Fault != nil); err != nil {
		return nil, fmt.Errorf("manager: transport start: %w", err)
	}
	o := &Overlay{
		numNodes:   numNodes,
		shards:     make([]ShardConn, numManagers),
		transport:  t,
		engine:     engine,
		opts:       opts.withDefaults(),
		plan:       opts.Fault,
		down:       make([]atomic.Bool, numManagers),
		closed:     make(chan struct{}),
		drainedSeq: make([]uint64, numManagers),
		replicaSeq: make([]uint64, numManagers),
	}
	for m := range o.shards {
		o.shards[m] = t.Shard(m)
	}
	o.publish(engine.Reputations())
	mShards.Set(float64(numManagers))
	mShardsDown.Set(0)
	return o, nil
}

// publish installs a copy of reps as the vector queries read.
func (o *Overlay) publish(reps []float64) {
	vec := append([]float64(nil), reps...)
	o.reps.Store(&vec)
}

// replicated reports whether replica mirroring is active.
func (o *Overlay) replicated() bool { return o.plan != nil }

// ManagerOf returns the manager index responsible for a node.
func (o *Overlay) ManagerOf(node int) int { return node % len(o.shards) }

// replicaOf returns the shard holding node's replica mirror.
func (o *Overlay) replicaOf(primary int) int { return (primary + 1) % len(o.shards) }

// NumManagers reports the overlay size.
func (o *Overlay) NumManagers() int { return len(o.shards) }

// downOrClosed maps a dead-shard signal to the right typed error: Close
// also tears shards down, and callers racing it should see ErrClosed, not
// ErrShardDown.
func (o *Overlay) downOrClosed() error {
	select {
	case <-o.closed:
		return ErrClosed
	default:
		return ErrShardDown
	}
}

// shardErr maps a transport-level failure onto the overlay's typed errors:
// deadlines stay ErrTimeout (retryable), everything else reads as a dead
// shard — ErrShardDown, or ErrClosed when the overlay itself is shutting
// down.
func (o *Overlay) shardErr(err error) error {
	if errors.Is(err, ErrTimeout) {
		return ErrTimeout
	}
	if errors.Is(err, ErrClosed) {
		return ErrClosed
	}
	return o.downOrClosed()
}

// Submit routes one rating to the ratee's manager: a one-rating SubmitBatch.
// Safe for concurrent use. Returns ErrClosed after Close, ErrShardDown when
// the responsible shard (and, in fault-tolerant mode, its replica) has
// crashed, and ErrTimeout when delivery attempts exhausted their deadlines.
func (o *Overlay) Submit(r rating.Rating) error {
	if errs := o.SubmitBatch([]rating.Rating{r}); errs != nil {
		return errs[0]
	}
	return nil
}

// SubmitBatch routes many ratings at once. It validates every rating once,
// counting-sorts the valid ones by responsible shard into one arena, sends
// every shard its runs and then collects the acknowledgements: the sends all
// land before the first wait, so the shards work concurrently whether they
// live in this process or behind a socket. A fault plan adds a drop verdict
// per delivery, a mirror run per shard and bounded retries of what was
// dropped or timed out; a rating survives as long as either of its copies
// lands. The returned slice is index-aligned with rs; a nil return means
// every rating landed. Safe for concurrent use.
func (o *Overlay) SubmitBatch(rs []rating.Rating) []error {
	if len(rs) == 0 {
		return nil
	}
	sp := mSubmitLat.Start()
	tsp := span.Ambient("manager.submit_batch", span.PhaseIngest).SetInt("ratings", int64(len(rs)))
	b := o.sortBatch(rs)
	b.deliver(tsp.Context())
	tsp.End()
	sp.End()
	mSubmitTotal.Add(int64(len(rs)))
	mSubmitErrors.Add(int64(b.failed))
	return b.errs
}

// batch is one SubmitBatch call. Class c — the valid ratings whose ratee
// shard c owns, in input order — is arena[starts[c]:starts[c+1]], and idx
// maps each arena slot back to its input index. Shard s's primary run is
// class s; under a fault plan its mirror run is class s−1, whose replicaOf
// is s, and two more fields are set. out holds each slot's primary (0) and
// mirror (1) delivery outcome, ErrTimeout while the delivery is pending;
// out[1] stays nil on a one-shard overlay, which has no mirror. slots[s]
// lists the arena slots of the runs shard s was sent in the current round.
type batch struct {
	o      *Overlay
	errs   []error // index-aligned with the input; nil until one fails
	n      int     // input length
	failed int
	arena  []rating.Rating
	idx    []int
	starts []int
	out    [2][]error
	slots  [][2][]int
}

// fail records err for input rating i, which has no error yet, allocating
// the error slice on first use: the all-landed common case allocates none.
func (b *batch) fail(i int, err error) {
	if b.errs == nil {
		b.errs = make([]error, b.n)
	}
	b.errs[i] = err
	b.failed++
}

// validate is the test every rating passes once before delivery, the same
// one a shard applies on receipt: both node IDs in range, then
// rating.Validate. A rating that fails it spends no delivery and no
// fault-plan draw.
func (o *Overlay) validate(r *rating.Rating) error {
	switch {
	case r.Ratee < 0 || r.Ratee >= o.numNodes:
		return fmt.Errorf("manager: ratee %d out of range", r.Ratee)
	case r.Rater < 0 || r.Rater >= o.numNodes:
		return fmt.Errorf("manager: rater %d out of range", r.Rater)
	}
	return rating.Validate(r)
}

// sortBatch validates rs and counting-sorts the ratings that pass into one
// arena grouped by shard.
func (o *Overlay) sortBatch(rs []rating.Rating) *batch {
	k := len(o.shards)
	b := &batch{o: o, n: len(rs), starts: make([]int, k+1)}
	for i := range rs {
		if err := o.validate(&rs[i]); err != nil {
			b.fail(i, err)
			continue
		}
		b.starts[o.ManagerOf(rs[i].Ratee)+1]++
	}
	for c := 0; c < k; c++ {
		b.starts[c+1] += b.starts[c]
	}
	total := b.starts[k]
	if total == 0 {
		return b
	}
	b.arena = make([]rating.Rating, total)
	b.idx = make([]int, total)
	fill := append([]int(nil), b.starts[:k]...)
	for i := range rs {
		if b.errs != nil && b.errs[i] != nil {
			continue
		}
		c := o.ManagerOf(rs[i].Ratee)
		b.arena[fill[c]] = rs[i]
		b.idx[fill[c]] = i
		fill[c]++
	}
	return b
}

// deliver runs the batch's delivery rounds: one round of primaries without a
// fault plan; with one, rounds with doubling backoff until nothing is left
// to retry or the attempt budget is spent, after which each rating's two
// outcomes resolve into its error.
func (b *batch) deliver(tctx span.Context) {
	o := b.o
	if len(b.arena) == 0 {
		return
	}
	if o.plan == nil {
		b.round(tctx)
		return
	}
	for kind := range b.out {
		if kind == 1 && len(o.shards) == 1 {
			break
		}
		b.out[kind] = make([]error, len(b.arena))
		for a := range b.out[kind] {
			b.out[kind][a] = ErrTimeout
		}
	}
	b.slots = make([][2][]int, len(o.shards))
	backoff := o.opts.RetryBackoff
	for attempt, pending := 0, len(b.arena); attempt < o.opts.RetryAttempts && pending > 0; attempt++ {
		if attempt > 0 {
			mRetries.Add(int64(pending))
			time.Sleep(backoff)
			backoff *= 2
		}
		pending = b.round(tctx)
	}
	b.resolve()
}

// round sends every shard its runs for this round, then collects the
// replies, and returns how many deliveries are left to retry.
func (b *batch) round(tctx span.Context) (pending int) {
	o := b.o
	var timeout time.Duration
	if o.plan != nil {
		timeout = o.opts.SubmitTimeout
	}
	waits := make([]func() ([]error, error), len(o.shards))
	for s := range waits {
		var down error
		if o.down[s].Load() {
			down = o.downOrClosed()
		}
		primary, mirror, dropped := b.take(s, down)
		pending += dropped
		if n := len(primary) + len(mirror); n > 0 {
			mBatchSize.Observe(float64(n))
			waits[s] = o.shards[s].Submit(tctx, primary, mirror, timeout)
		}
	}
	for s, wait := range waits {
		if wait == nil {
			continue
		}
		res, terr := wait()
		if terr != nil {
			terr = o.shardErr(terr)
		}
		pending += b.settle(s, res, terr)
	}
	return pending
}

// take returns shard s's runs for this round and how many of its
// deliveries the fault plan dropped. When down is set — s is down — every
// delivery the shard has pending fails with it and draws no verdict.
// Otherwise, without a plan the primary run is the whole of class s. With
// one, each pending delivery — the primaries of class s merged in input
// order with the mirrors of class s−1 — draws one verdict, and the runs
// hold those not dropped. A dropped delivery stays pending: lost in
// transit, its ack deadline lapsed in simulated time.
func (b *batch) take(s int, down error) (primary, mirror []rating.Rating, dropped int) {
	p, pEnd := b.starts[s], b.starts[s+1]
	if b.out[0] == nil {
		if down != nil {
			b.settle(s, nil, down)
			return nil, nil, 0
		}
		return b.arena[p:pEnd], nil, 0
	}
	m, mEnd := 0, 0
	if b.out[1] != nil {
		c := (s + len(b.o.shards) - 1) % len(b.o.shards)
		m, mEnd = b.starts[c], b.starts[c+1]
	}
	var slots [2][]int
	for p < pEnd || m < mEnd {
		kind, a := 0, p
		if p == pEnd || m < mEnd && b.idx[m] < b.idx[p] {
			kind, a = 1, m
			m++
		} else {
			p++
		}
		switch {
		case b.out[kind][a] != ErrTimeout: // settled in an earlier round
		case down != nil:
			b.out[kind][a] = down
		case b.o.plan.DeliveryVerdict(s).Drop:
			dropped++
		default:
			slots[kind] = append(slots[kind], a)
		}
	}
	b.slots[s] = slots
	var runs [2][]rating.Rating
	for kind, sl := range slots {
		runs[kind] = make([]rating.Rating, len(sl))
		for x, a := range sl {
			runs[kind][x] = b.arena[a]
		}
	}
	return runs[0], runs[1], dropped
}

// settle records shard s's reply to the runs it was sent — res
// index-aligned with the primary run followed by the mirror run, or terr
// for all of them — and returns how many of the deliveries timed out and
// stay pending. Without a plan the shard was sent class s whole, and a
// failure is the rating's error.
func (b *batch) settle(s int, res []error, terr error) (timedOut int) {
	if b.out[0] == nil {
		if res == nil && terr == nil {
			return 0 // the whole run landed
		}
		lo := b.starts[s]
		for a := lo; a < b.starts[s+1]; a++ {
			err := terr
			if err == nil {
				err = res[a-lo]
			}
			if err != nil {
				b.fail(b.idx[a], err)
			}
		}
		return 0
	}
	x := 0
	for kind, sl := range b.slots[s] {
		for _, a := range sl {
			err := terr
			if err == nil && res != nil {
				err = res[x]
			}
			x++
			b.out[kind][a] = err
			if err == ErrTimeout {
				timedOut++
			}
		}
	}
	return timedOut
}

// resolve turns each rating's delivery outcomes into its error: none when
// the primary landed, or — a failover — when only the mirror did, which the
// next drain recovers; otherwise the primary's error. ErrClosed stands
// either way.
func (b *batch) resolve() {
	for a, i := range b.idx {
		pErr := b.out[0][a]
		rErr := pErr // a one-shard overlay has no distinct mirror
		if b.out[1] != nil {
			rErr = b.out[1][a]
		}
		switch {
		case pErr == nil:
		case errors.Is(pErr, ErrClosed) || rErr != nil:
			b.fail(i, pErr)
		default:
			mFailovers.Inc()
		}
	}
}

// Reputation returns node's current global reputation. Safe for concurrent
// use; returns 0 after Close or when the responsible shard is down (use
// Query for the typed error).
func (o *Overlay) Reputation(node int) float64 {
	v, _ := o.Query(node)
	return v
}

// Query returns node's reputation from the published vector, answered on
// behalf of its manager. In fault-tolerant mode a down primary fails over to
// the replica shard. Returns ErrShardDown when no responsible shard is up
// and ErrClosed after Close.
func (o *Overlay) Query(node int) (float64, error) {
	if node < 0 || node >= o.numNodes {
		return 0, fmt.Errorf("manager: node %d out of range", node)
	}
	sp := mQueryLat.Start()
	defer func() {
		sp.End()
		mQueryTotal.Inc()
	}()
	select {
	case <-o.closed:
		return 0, ErrClosed
	default:
	}
	if p := o.ManagerOf(node); o.down[p].Load() {
		rep := o.replicaOf(p)
		if o.plan == nil || rep == p || o.down[rep].Load() {
			return 0, o.downOrClosed()
		}
	}
	return (*o.reps.Load())[node], nil
}

// DrainStatus reports how one EndInterval degraded under faults.
type DrainStatus struct {
	// Drained counts shards whose primary snapshot arrived; ReplicaUsed
	// lists shards recovered from their successor's mirror; Missing lists
	// shards whose interval data was lost outright (primary and replica
	// both unreachable).
	Drained     int
	ReplicaUsed []int
	Missing     []int
	// Partial is true when any shard's data was lost (Missing non-empty):
	// the update proceeded on the surviving quorum.
	Partial bool
	// Crashed and Restarted list the shard transitions the fault plan
	// applied at this interval boundary.
	Crashed   []int
	Restarted []int
}

// EndInterval performs the paper's periodic global reputation update: it
// drains every manager's shard, merges the snapshots in deterministic
// order, feeds them to the engine (where a wrapped SocialTrust filter
// performs its B1–B4 adjustment), and publishes the new reputation vector.
// Returns the updated vector.
func (o *Overlay) EndInterval() []float64 {
	reps, _ := o.EndIntervalStatus()
	return reps
}

// EndIntervalStatus is EndInterval plus the drain's degradation report.
// Under a fault plan it applies the interval's scheduled crashes first
// (losing those shards' primary interval ledgers), drains the survivors
// within the drain deadline, substitutes replica mirrors for crashed
// primaries, and restarts shards whose outage ended. It never blocks on a
// dead shard.
func (o *Overlay) EndIntervalStatus() ([]float64, DrainStatus) {
	o.mu.Lock()
	defer o.mu.Unlock()
	var status DrainStatus
	select {
	case <-o.closed:
		return make([]float64, o.numNodes), status
	default:
	}
	sp := obs.Start("manager.drain")
	defer func() {
		sp.End()
		mDrainTotal.Inc()
	}()
	rec := event.Current()
	var drainStart time.Time
	if rec != nil {
		drainStart = time.Now()
	}
	interval := 0
	// Phase 0 (fault mode): apply this interval's scheduled outages. A
	// crash at interval t loses the shard's interval-t primary ledger — the
	// replica mirror on its successor is the only surviving copy.
	if o.plan != nil {
		crashes, restarts := o.plan.BeginInterval()
		interval = o.plan.Interval()
		status.Crashed = crashes
		status.Restarted = restarts
		for _, s := range crashes {
			o.crashShardLocked(s)
			mCrashes.Inc()
			if rec != nil {
				rec.RecordManager(event.ManagerEvent{Kind: "crash", Shard: s, Interval: interval})
			}
		}
		// Restarts are applied after the drain below, so a rejoining shard
		// starts on the next interval.
		defer func() {
			for _, s := range restarts {
				o.restartShardLocked(s)
				mRestarts.Inc()
				if rec != nil {
					rec.RecordManager(event.ManagerEvent{Kind: "restart", Shard: s, Interval: interval})
				}
			}
		}()
	}
	// Phase 1: drain all reachable shards concurrently. The drain span covers
	// phases 1–2 (collection, the WAL marks and the gather, the last two in
	// child spans of the same phase); the engine update in phase 3 emits its
	// own adjust/iterate spans.
	tsp := span.Ambient("manager.drain_shards", span.PhaseDrain).SetInt("shards", int64(len(o.shards)))
	tctx := tsp.Context()
	replies := make([]*DrainSnapshots, len(o.shards))
	var wg sync.WaitGroup
	for i := range o.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			replies[i] = o.drainShard(i, tctx)
		}(i)
	}
	wg.Wait()
	// Phase 2: assemble the interval's snapshots — primaries where they
	// arrived, replica mirrors where they did not — and gather. Each shard's
	// drained high-water mark advances to the max ingest sequence of
	// whatever snapshot stood in for its data: WAL records at or below the
	// mark are covered by this (or an earlier) drain.
	o.intervals++
	snaps := make([]rating.Snapshot, len(o.shards))
	for i := range o.shards {
		if replies[i] != nil {
			snaps[i] = replies[i].Primary
			o.noteDrained(i, replies[i].Primary.MaxSeq)
			o.noteReplicaDrained(i, replies[i].Replica.MaxSeq)
			status.Drained++
			continue
		}
		if j := o.replicaOf(i); o.replicated() && j != i && replies[j] != nil {
			snaps[i] = replies[j].Replica
			o.noteDrained(i, replies[j].Replica.MaxSeq)
			status.ReplicaUsed = append(status.ReplicaUsed, i)
			mDrainReplica.Inc()
			continue
		}
		status.Missing = append(status.Missing, i)
	}
	// A shard that failed its drain while not down is in an unknown state:
	// it may still hold — or later replay — interval data this drain just
	// recovered through the mirror. Force a restart carrying the post-drain
	// floors so it discards its stale interval state and rebuilds only the
	// uncovered WAL tail. A restart that fails leaves a shard that is
	// unreachable anyway; the next drain finds it so.
	for i, s := range o.shards {
		if replies[i] == nil && !o.down[i].Load() {
			_ = s.Restart(o.drainedSeq[i], o.replicaSeq[i], false)
		}
	}
	// Stamp (and, per the fsync policy, sync) an interval mark on every WAL:
	// the tail of a completed interval must reach stable storage before the
	// caller snapshots against it. A failed mark degrades durability, not
	// the interval: persist counts the error and the records stay in the WAL.
	// Each shard owns its WAL, so the marks run concurrently, as the drains
	// do; each lands at the same place in its own file as a serial loop's.
	msp := tsp.Child("manager.mark", span.PhaseDrain)
	for _, s := range o.shards {
		wg.Add(1)
		go func(s ShardConn) {
			defer wg.Done()
			_ = s.Mark(o.intervals)
		}(s)
	}
	wg.Wait()
	msp.End()
	if len(status.Missing) > 0 {
		status.Partial = true
		mDrainPartial.Inc()
	}
	gsp := tsp.Child("manager.gather", span.PhaseDrain)
	merged := mergeSnapshots(snaps)
	gsp.End()
	if obs.Enabled() {
		mActivePairs.Observe(float64(len(rating.PairRuns(merged.Ratings, nil))))
	}
	tsp.SetInt("ratings", int64(len(merged.Ratings))).End()
	// Phase 3: global reputation calculation over the surviving quorum's
	// data. Nodes whose interval ratings were lost keep their last-known
	// engine reputation — the engine state is cumulative.
	o.engine.Update(merged)
	reps := o.engine.Reputations()
	o.publish(reps)
	if rec != nil {
		rec.RecordManager(event.ManagerEvent{
			Kind:     "drain",
			Shards:   len(o.shards),
			Ratings:  len(merged.Ratings),
			Seconds:  time.Since(drainStart).Seconds(),
			Interval: interval,
			Missing:  len(status.Missing),
			Replicas: len(status.ReplicaUsed),
			Partial:  status.Partial,
		})
	}
	return reps, status
}

// drainShard collects one shard's interval snapshots, bounded by the drain
// deadline in fault mode. Returns nil when the shard is down or unreachable.
func (o *Overlay) drainShard(i int, tctx span.Context) *DrainSnapshots {
	if o.down[i].Load() {
		return nil
	}
	var timeout time.Duration
	if o.plan != nil {
		timeout = o.opts.DrainTimeout
	}
	ds, err := o.shards[i].Drain(tctx, timeout)
	if err != nil {
		return nil
	}
	return &ds
}

// crashShardLocked crashes the shard, losing its interval ledgers. Callers
// hold o.mu. Idempotent on already-down shards.
func (o *Overlay) crashShardLocked(i int) {
	if o.down[i].Load() {
		return
	}
	// The down flag is what the overlay acts on; a shard the crash cannot
	// reach is unreachable for the same reason.
	_ = o.shards[i].Crash()
	o.down[i].Store(true)
	mShardsDown.Add(1)
}

// restartShardLocked restarts a crashed shard. Callers hold o.mu. A live
// shard is left untouched. The shard replays its WAL tail above its drained
// floors — rating records journaled by the incarnation that crashed — so a
// WAL-backed shard crash loses nothing that was acknowledged (the replica
// mirror alone can miss replica-dropped deliveries).
func (o *Overlay) restartShardLocked(i int) {
	if !o.down[i].Load() {
		return
	}
	// A shard the restart cannot reach fails its next operations the way a
	// down one does, so the error adds nothing here.
	_ = o.shards[i].Restart(o.drainedSeq[i], o.replicaSeq[i], false)
	o.down[i].Store(false)
	mShardsDown.Add(-1)
}

// crashShard is the test hook for killing one shard outside a fault plan.
func (o *Overlay) crashShard(i int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.crashShardLocked(i)
}

// mergeSnapshots combines the interval's drained snapshots, indexed by shard
// — an empty entry for a shard whose data never arrived, the replica mirror
// for one whose primary did not — into one snapshot, equal to
// rating.SnapshotOrder of their ratings in shard order. MaxSeq is the highest
// of the shards' marks. A lone non-empty snapshot's ratings are returned as
// they are: its ledger already put them in snapshot order, and every drain
// hands over a fresh snapshot the overlay may own.
//
// Otherwise the snapshots are gathered, not merged: ManagerOf sends ratee r
// to shard r mod k and snapshot order is ratee-first, so ratee r's ratings
// are the next run of snapshot r mod k. A socket drain reply is outside
// input, so gather checks as it copies that each snapshot is in snapshot
// order and holds only its own residue class; when either fails, the same
// runs are put in order by rating.SnapshotOrder instead.
func mergeSnapshots(snaps []rating.Snapshot) rating.Snapshot {
	var out rating.Snapshot
	n, live := 0, 0
	for _, s := range snaps {
		out.MaxSeq = max(out.MaxSeq, s.MaxSeq)
		if len(s.Ratings) > 0 {
			n, live, out.Ratings = n+len(s.Ratings), live+1, s.Ratings
		}
	}
	if live <= 1 {
		return out
	}
	if out.Ratings = gather(snaps, n); out.Ratings == nil {
		runs := make([][]rating.Rating, len(snaps))
		for i, s := range snaps {
			runs[i] = s.Ratings
		}
		out.Ratings = rating.SnapshotOrder(runs...)
	}
	return out
}

// gather returns the n ratings of snaps with each ratee's run taken from the
// snapshot of its residue class, in ratee order, or nil when a snapshot is
// out of snapshot order or holds a ratee of another class. Ratees are walked
// a block of k at a time, block b holding ratees b·k … b·k+k−1, skipping
// blocks no snapshot holds; snapshot c gives block b the run of ratee b·k+c.
func gather(snaps []rating.Snapshot, n int) []rating.Rating {
	k := len(snaps)
	out := make([]rating.Rating, 0, n)
	rest := make([][]rating.Rating, k)
	for c, s := range snaps {
		rest[c] = s.Ratings
	}
	for prev := -1; ; {
		block := -1
		for _, rs := range rest {
			if len(rs) == 0 {
				continue
			}
			// Every head must lie past the previous block. One that does
			// not was left behind by it: out of order, or outside its
			// snapshot's residue class (a negative ratee included).
			b := rs[0].Ratee / k
			if b <= prev {
				return nil
			}
			if block < 0 || b < block {
				block = b
			}
		}
		if block < 0 {
			return out
		}
		for c, rs := range rest {
			m := 0
			for m < len(rs) && rs[m].Ratee == block*k+c {
				if m > 0 && rating.CompareSnapshot(&rs[m-1], &rs[m]) > 0 {
					return nil
				}
				m++
			}
			out = append(out, rs[:m]...)
			rest[c] = rs[m:]
		}
		prev = block
	}
}

// Close shuts the overlay down. Close is idempotent and safe to race against
// in-flight calls: Submit returns ErrClosed, queries return 0, and
// EndInterval returns a zero vector once the overlay is closed. Ratings
// still queued in shard mailboxes at close time are dropped.
func (o *Overlay) Close() {
	o.once.Do(func() {
		o.mu.Lock()
		defer o.mu.Unlock()
		close(o.closed)
		_ = o.transport.Close()
	})
}
