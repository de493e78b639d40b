// Run-level durability: with Config.StateDir set, every manager shard
// journals the ratings it accepts to its own write-ahead log under
// <StateDir>/shards before acknowledging them, and the simulator writes an
// atomic snapshot of the complete run state at every interval boundary — the
// end of each simulation cycle, after the reputation update. A process
// restarted over the same directory loads the snapshot, replays the WAL tails
// of the interrupted interval, and re-executes that interval from its start:
// every random stream resumes from its recorded position, so the re-execution
// regenerates exactly the ratings the dead process generated, and replayed
// sequence numbers are acknowledged without double-counting. Reputations,
// detection tables and audit event streams of the resumed run are
// bit-identical to an uninterrupted run of the same seed.
package sim

import (
	"fmt"
	"os"
	"path/filepath"

	"socialtrust/internal/core"
	"socialtrust/internal/fault"
	"socialtrust/internal/obs"
	"socialtrust/internal/obs/event"
	"socialtrust/internal/persist"
	"socialtrust/internal/reputation/ebay"
	"socialtrust/internal/reputation/eigentrust"
	"socialtrust/internal/reputation/trustguard"
	"socialtrust/internal/socialgraph"
	"socialtrust/internal/xrand"
)

// runState is the gob-serialized interval-boundary snapshot of a run: the
// fingerprinted configuration, every Result accumulator, the per-node and
// per-stream random positions, and the persistent state of each substrate
// (graph, filter, engine, fault plan). Exactly one of the Engine* pointers is
// set, matching the configured engine kind. Events carries the audit stream
// drained into checkpoints so far; EventSeq its high-water sequence number.
type runState struct {
	Fingerprint string
	// Cycle counts completed simulation cycles — the resumed run's first
	// cycle index. Seq is the global rating ingest sequence high-water at the
	// boundary, the floor for WAL tail replay.
	Cycle int
	Seq   uint64

	// Result accumulators.
	TotalRequests         int
	RequestsToColluders   int
	AuthenticServed       int
	InauthenticServed     int
	ServedByType          map[NodeType]int
	Whitewashes           int
	Churn                 ChurnStats
	RatingsLost           int
	PartialDrains         int
	ReplicaDrains         int
	History               [][]float64
	PerCycleColluderShare []float64
	LastAbove             []int
	EverAbove             []bool

	// Reps is the reputation vector published at the boundary.
	Reps []float64

	// Per-node run state and random stream positions.
	Online        []bool
	NodeGood      []float64
	NodeHoneymoon []int
	NodeRNGDraws  []uint64
	ChurnDraws    uint64

	// Substrate states.
	Graph      socialgraph.State
	Filter     *core.FilterState
	EngineET   *eigentrust.State
	EngineEBay *ebay.State
	EngineTG   *trustguard.State
	Fault      *fault.State

	// DrainedSeqs holds the overlay's per-shard drained sequence marks: WAL
	// records at or below a shard's mark are covered by drains this snapshot
	// already accounts for.
	DrainedSeqs []uint64

	// Audit event stream through this boundary.
	Events   []event.Event
	EventSeq uint64
}

// durable reports whether the run persists its state.
func (n *Network) durable() bool { return n.Cfg.StateDir != "" }

// snapshotPath locates the interval-boundary snapshot file.
func (n *Network) snapshotPath() string {
	return filepath.Join(n.Cfg.StateDir, "snapshot.st")
}

// fingerprint canonicalizes the configuration for snapshot compatibility
// checks. Harness knobs that cannot change results — worker parallelism and
// the state/output directories — are zeroed, so a resumed run may use
// different parallelism or log elsewhere; everything else must match.
func (n *Network) fingerprint() string {
	c := n.Cfg
	c.StateDir, c.AuditDir, c.TraceDir = "", "", ""
	c.Workers = 0
	c.Cluster = 0 // shard placement cannot change results
	return fmt.Sprintf("%+v", c)
}

// initPersist opens the durability layer at construction: the state
// directory (the shard WALs were opened by the overlay itself) and — when an
// interval-boundary snapshot is present — the resume state, validated
// against the configuration fingerprint. Called from NewNetwork after
// buildOverlay.
func (n *Network) initPersist() error {
	cfg := n.Cfg
	if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
		return err
	}
	if persist.SnapshotExists(n.snapshotPath()) {
		var st runState
		if err := persist.LoadSnapshot(n.snapshotPath(), &st); err != nil {
			return fmt.Errorf("sim: state dir %s: %w", cfg.StateDir, err)
		}
		if st.Fingerprint != n.fingerprint() {
			return fmt.Errorf("sim: snapshot in %s was written by a different configuration; use a fresh state dir or rerun with identical parameters", cfg.StateDir)
		}
		if err := n.checkResume(&st); err != nil {
			return fmt.Errorf("sim: state dir %s: malformed snapshot: %w", cfg.StateDir, err)
		}
		n.resume = &st
	}
	return nil
}

// checkResume refuses a snapshot that matches the fingerprint but not the
// run it would resume: applyResume indexes per-node and per-shard state by
// position and imports the substrate states this configuration builds, so
// each must be present and sized for it. A CRC-valid but malformed file is
// then an error at construction, not a panic mid-resume.
func (n *Network) checkResume(st *runState) error {
	cfg := n.Cfg
	if err := st.Graph.Validate(cfg.NumNodes); err != nil {
		return err
	}
	for _, l := range []struct {
		name      string
		got, want int
	}{
		{"reputation vector", len(st.Reps), cfg.NumNodes},
		{"online flags", len(st.Online), cfg.NumNodes},
		{"node QoS", len(st.NodeGood), cfg.NumNodes},
		{"node honeymoons", len(st.NodeHoneymoon), cfg.NumNodes},
		{"node stream positions", len(st.NodeRNGDraws), cfg.NumNodes},
		{"colluder last-above cycles", len(st.LastAbove), cfg.NumColluders},
		{"colluder ever-above flags", len(st.EverAbove), cfg.NumColluders},
		{"drained shard marks", len(st.DrainedSeqs), cfg.Managers},
	} {
		if l.got != l.want {
			return fmt.Errorf("%s has %d entries, want %d", l.name, l.got, l.want)
		}
	}
	if n.Filter != nil && st.Filter == nil {
		return fmt.Errorf("filter state missing")
	}
	var err error
	switch n.inner.(type) {
	case *eigentrust.Engine:
		err = checkState("EigenTrust engine", st.EngineET, cfg.NumNodes)
	case *ebay.Engine:
		err = checkState("eBay engine", st.EngineEBay, cfg.NumNodes)
	case *trustguard.Engine:
		err = checkState("TrustGuard engine", st.EngineTG, cfg.NumNodes)
	}
	if err == nil && n.FaultPlan != nil {
		err = checkState("fault plan", st.Fault, cfg.Managers)
	}
	return err
}

// checkState requires a snapshot substate and validates it against size.
func checkState[S interface{ Validate(int) error }](name string, st *S, size int) error {
	if st == nil {
		return fmt.Errorf("%s state missing", name)
	}
	return (*st).Validate(size)
}

// startFresh prepares a durable run over a directory with no snapshot: stale
// WAL content (a crash before the first checkpoint, or leftovers of an older
// run) is discarded — with no snapshot to anchor them such records are
// meaningless, and the run regenerates everything from the seed — and
// checkpoint 0 is written so a crash anywhere in the first interval recovers
// through the normal resume path. No-op without a state directory.
func (n *Network) startFresh(res *Result, lastAbove []int, everAbove []bool, reps []float64) {
	if !n.durable() {
		return
	}
	if err := n.Overlay.ResetWALs(); err != nil {
		obs.Logger().Warn("resetting shard WALs failed; durability degraded", "err", err)
	}
	n.checkpoint(res, lastAbove, everAbove, reps, 0)
}

// checkpoint captures and writes the interval-boundary snapshot, then trims
// the logs it covers. Snapshot failure degrades durability, not correctness:
// the run continues and a later crash recovers from the previous boundary.
// Compaction is sequence-filtered, so records of the next, in-flight interval
// and crashed shards' recoverable tails survive it — and a crash between the
// snapshot write and the trim is safe for the same reason.
func (n *Network) checkpoint(res *Result, lastAbove []int, everAbove []bool, reps []float64, cycle int) {
	if !n.durable() {
		return
	}
	st := n.captureState(res, lastAbove, everAbove, reps, cycle)
	if err := persist.WriteSnapshot(n.snapshotPath(), st); err != nil {
		obs.Logger().Warn("interval checkpoint failed; durability degraded", "cycle", cycle, "err", err)
		return
	}
	if err := n.Overlay.CompactWALs(); err != nil {
		obs.Logger().Warn("shard WAL compaction failed", "err", err)
	}
}

// captureState deep-copies everything a resumed process needs at an interval
// boundary. The audit ring is drained into savedEvents here, so the ring
// never overflows on long durable runs and the snapshot always carries the
// complete stream.
func (n *Network) captureState(res *Result, lastAbove []int, everAbove []bool, reps []float64, cycle int) *runState {
	st := &runState{
		Fingerprint:           n.fingerprint(),
		Cycle:                 cycle,
		Seq:                   n.seq,
		TotalRequests:         res.TotalRequests,
		RequestsToColluders:   res.RequestsToColluders,
		AuthenticServed:       res.AuthenticServed,
		InauthenticServed:     res.InauthenticServed,
		ServedByType:          make(map[NodeType]int, len(res.ServedByType)),
		Whitewashes:           res.Whitewashes,
		Churn:                 res.Churn,
		RatingsLost:           n.ratingsLost,
		PartialDrains:         res.PartialDrains,
		ReplicaDrains:         res.ReplicaDrains,
		History:               append([][]float64(nil), res.History...),
		PerCycleColluderShare: append([]float64(nil), res.PerCycleColluderShare...),
		LastAbove:             append([]int(nil), lastAbove...),
		EverAbove:             append([]bool(nil), everAbove...),
		Reps:                  append([]float64(nil), reps...),
		Online:                append([]bool(nil), n.online...),
		NodeGood:              make([]float64, len(n.Nodes)),
		NodeHoneymoon:         make([]int, len(n.Nodes)),
		NodeRNGDraws:          make([]uint64, len(n.Nodes)),
		ChurnDraws:            n.churnRNG.SourceDraws(),
		Graph:                 n.Graph.ExportState(),
	}
	for t, c := range res.ServedByType {
		st.ServedByType[t] = c
	}
	for i, node := range n.Nodes {
		st.NodeGood[i] = node.Good
		st.NodeHoneymoon[i] = node.honeymoon
		st.NodeRNGDraws[i] = node.rng.SourceDraws()
	}
	if n.Filter != nil {
		fs := n.Filter.ExportState()
		st.Filter = &fs
	}
	switch e := n.inner.(type) {
	case *eigentrust.Engine:
		es := e.ExportState()
		st.EngineET = &es
	case *ebay.Engine:
		es := e.ExportState()
		st.EngineEBay = &es
	case *trustguard.Engine:
		es := e.ExportState()
		st.EngineTG = &es
	default:
		panic(fmt.Sprintf("sim: engine %T has no snapshot support", n.inner))
	}
	if n.FaultPlan != nil {
		fs := n.FaultPlan.ExportState()
		st.Fault = &fs
	}
	st.DrainedSeqs = n.Overlay.DrainedSeqs()
	if rec := event.Current(); rec != nil {
		n.savedEvents = append(n.savedEvents, rec.Drain()...)
		st.Events = n.savedEvents
		st.EventSeq = rec.Recorded()
	}
	return st
}

// applyResume restores the snapshot found at construction: every substrate
// state, the Result accumulators, and all random stream positions. The
// overlay's Resume replays the interrupted interval's acknowledged WAL tails
// with their sequence numbers registered as recovered, so the deterministic
// re-execution of that interval neither loses nor double-counts a rating. Returns the boundary reputation vector and the
// cycle index to resume at.
func (n *Network) applyResume(res *Result, lastAbove []int, everAbove []bool) ([]float64, int) {
	st := n.resume
	n.resume = nil
	persist.RecoveryStarted()
	obs.Logger().Info("resuming from interval-boundary snapshot",
		"state_dir", n.Cfg.StateDir, "cycle", st.Cycle, "seq", st.Seq)
	// checkResume vetted every state below at construction.
	n.Graph.ImportState(st.Graph)
	if n.Filter != nil {
		n.Filter.ImportState(*st.Filter)
	}
	switch e := n.inner.(type) {
	case *eigentrust.Engine:
		e.ImportState(*st.EngineET)
	case *ebay.Engine:
		e.ImportState(*st.EngineEBay)
	case *trustguard.Engine:
		e.ImportState(*st.EngineTG)
	default:
		panic(fmt.Sprintf("sim: engine %T has no snapshot support", n.inner))
	}
	if n.FaultPlan != nil {
		n.FaultPlan.ImportState(*st.Fault)
	}
	for i, node := range n.Nodes {
		node.Good = st.NodeGood[i]
		node.honeymoon = st.NodeHoneymoon[i]
		fastForward(node.rng, st.NodeRNGDraws[i])
	}
	copy(n.online, st.Online)
	fastForward(n.churnRNG, st.ChurnDraws)
	n.seq = st.Seq
	n.ratingsLost = st.RatingsLost
	n.savedEvents = append(n.savedEvents, st.Events...)
	if rec := event.Current(); rec != nil {
		rec.AdvanceSeq(st.EventSeq)
	}
	res.TotalRequests = st.TotalRequests
	res.RequestsToColluders = st.RequestsToColluders
	res.AuthenticServed = st.AuthenticServed
	res.InauthenticServed = st.InauthenticServed
	for t, c := range st.ServedByType {
		res.ServedByType[t] = c
	}
	res.Whitewashes = st.Whitewashes
	res.Churn = st.Churn
	res.PartialDrains = st.PartialDrains
	res.ReplicaDrains = st.ReplicaDrains
	res.History = st.History
	res.PerCycleColluderShare = st.PerCycleColluderShare
	copy(lastAbove, st.LastAbove)
	copy(everAbove, st.EverAbove)
	reps := append([]float64(nil), st.Reps...)
	if err := n.Overlay.Resume(st.DrainedSeqs, st.Seq, st.Reps); err != nil {
		panic(fmt.Sprintf("sim: overlay resume: %v", err))
	}
	return reps, st.Cycle
}

// fastForward advances a fresh random stream to a snapshotted position.
func fastForward(s *xrand.Stream, target uint64) {
	cur := s.SourceDraws()
	if cur > target {
		panic(fmt.Sprintf("sim: random stream already past restore point (%d > %d)", cur, target))
	}
	s.Discard(target - cur)
}

// abandon stands in for the process dying mid-run (the haltAt test hook):
// manager goroutines stop and open WAL files close. Closing writes nothing a
// kill -9 would not have left behind — every append was flushed to the OS
// before its ingest was acknowledged.
func (n *Network) abandon() {
	n.Overlay.Close()
	n.closeCluster()
}
