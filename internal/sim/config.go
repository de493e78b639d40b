// Package sim implements the paper's P2P evaluation testbed (Section 5.1):
// an unstructured resource-sharing network of pretrusted, normal and
// colluding peers driven in query cycles and simulation cycles, with the
// three collusion models (PCM, MCM, MMM), compromised pretrusted nodes, and
// falsified social information. Query intents are computed concurrently
// across peers; all randomness derives from per-actor xrand streams so a
// given seed reproduces results exactly.
package sim

import (
	"fmt"

	"socialtrust/internal/core"
	"socialtrust/internal/fault"
)

// NodeType classifies peers per the paper's node model.
type NodeType int

// Node types. Pretrusted peers always serve authentic content, normal peers
// do so with probability 0.8, colluders with probability B.
const (
	Pretrusted NodeType = iota
	Normal
	Colluder
)

// String implements fmt.Stringer.
func (t NodeType) String() string {
	switch t {
	case Pretrusted:
		return "pretrusted"
	case Normal:
		return "normal"
	case Colluder:
		return "colluder"
	default:
		return fmt.Sprintf("NodeType(%d)", int(t))
	}
}

// CollusionModel selects one of the paper's attack structures.
type CollusionModel int

const (
	// NoCollusion runs the baseline of Figure 7: malicious peers serve
	// low-QoS content but do not rate-collude.
	NoCollusion CollusionModel = iota
	// PCM (pair-wise collusion model): colluders form mutual pairs that
	// rate each other positively at high frequency.
	PCM
	// MCM (multiple node collusion model): boosting colluders rate a small
	// set of boosted colluders; the boosted do not rate back.
	MCM
	// MMM (multiple and mutual collusion model): like MCM, but boosted
	// nodes rate their boosters back.
	MMM
)

// String implements fmt.Stringer.
func (m CollusionModel) String() string {
	switch m {
	case NoCollusion:
		return "none"
	case PCM:
		return "PCM"
	case MCM:
		return "MCM"
	case MMM:
		return "MMM"
	default:
		return fmt.Sprintf("CollusionModel(%d)", int(m))
	}
}

// EngineKind selects the underlying reputation system.
type EngineKind int

const (
	// EngineEigenTrust is the EigenTrust baseline (pretrust weight 0.5).
	EngineEigenTrust EngineKind = iota
	// EngineEBay is the eBay-style baseline.
	EngineEBay
	// EngineTrustGuard is the TrustGuard-style baseline (credibility-
	// weighted feedback with a fluctuation-penalized temporal blend) —
	// the paper's closest prior-art collusion defense, reference [12].
	EngineTrustGuard
)

// String implements fmt.Stringer.
func (k EngineKind) String() string {
	switch k {
	case EngineEigenTrust:
		return "EigenTrust"
	case EngineEBay:
		return "eBay"
	case EngineTrustGuard:
		return "TrustGuard"
	default:
		return fmt.Sprintf("EngineKind(%d)", int(k))
	}
}

// ChurnConfig models a dynamic peer population — the departure from the
// paper's static 200-node testbed that real P2P deployments force. Sessions
// are geometric: each simulation cycle, every online non-pretrusted peer
// departs with probability DepartPerCycle and every offline peer returns
// with probability RejoinPerCycle. Offline peers issue no queries, serve no
// content (zero capacity), and send no collusion ratings. Pretrusted peers
// are treated as infrastructure and never churn (the paper's trustworthy
// core). The zero ChurnConfig disables churn.
type ChurnConfig struct {
	// DepartPerCycle is the per-online-peer, per-simulation-cycle departure
	// probability (mean session length 1/DepartPerCycle cycles).
	DepartPerCycle float64
	// RejoinPerCycle is the per-offline-peer, per-cycle return probability
	// (mean offline period 1/RejoinPerCycle cycles; zero strands departed
	// peers offline for the rest of the run).
	RejoinPerCycle float64
	// WhitewashFraction is the probability a rejoining peer comes back
	// under a fresh identity (whitewash-rejoin): the engine forgets it, its
	// social edges are rebuilt, and it restarts at newcomer reputation.
	WhitewashFraction float64
}

// Enabled reports whether the configuration churns the population at all.
func (c ChurnConfig) Enabled() bool { return c.DepartPerCycle > 0 }

func (c ChurnConfig) validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"DepartPerCycle", c.DepartPerCycle},
		{"RejoinPerCycle", c.RejoinPerCycle},
		{"WhitewashFraction", c.WhitewashFraction},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("sim: churn %s %v outside [0,1]", p.name, p.v)
		}
	}
	return nil
}

// DefaultChurn is the moderate churn regime the -churn CLI flag enables:
// ~5% of online peers leave each cycle (mean session 20 cycles), offline
// peers return quickly, and one in ten returns under a fresh identity.
func DefaultChurn() ChurnConfig {
	return ChurnConfig{DepartPerCycle: 0.05, RejoinPerCycle: 0.5, WhitewashFraction: 0.1}
}

// IntRange is an inclusive [Lo,Hi] integer range parameter.
type IntRange struct{ Lo, Hi int }

// FloatRange is a [Lo,Hi) float range parameter.
type FloatRange struct{ Lo, Hi float64 }

// Config holds every Section 5.1 experiment parameter. Zero values are
// replaced by the paper's defaults in withDefaults.
type Config struct {
	NumNodes      int        // 200
	NumInterests  int        // 20 categories in the system
	InterestsPer  IntRange   // [1,10] interests per node
	NumPretrusted int        // 9 (IDs 0..8; the paper's 1..9)
	NumColluders  int        // 30 (IDs 9..38; the paper's 10..39)
	Activity      FloatRange // per-node activity probability, [0.5,1]
	Capacity      int        // 50 requests a server handles per query cycle

	QueryCycles      int // 30 query cycles per simulation cycle
	SimulationCycles int // 50

	// QoS probabilities ("B" for colluders).
	PretrustedGood float64 // 1.0
	NormalGood     float64 // 0.8
	ColluderGood   float64 // B: 0.2 or 0.6

	// SelectionThreshold is TR: only servers with reputation above it join
	// the reputation-weighted candidate pool (0.01 in the paper); when no
	// candidate qualifies the client picks uniformly (the cold-start rule).
	SelectionThreshold float64
	// Exploration is the probability a client ignores reputation and picks
	// a uniform candidate — the EigenTrust paper's ~10% exploration that
	// lets newcomers earn trust and keeps negative feedback flowing to
	// low-QoS peers. Default 0.1.
	Exploration float64
	// PretrustMix is the EigenTrust mixing weight a in
	// t ← (1−a)·Cᵀt + a·p. The paper states 0.5, but a = 0.5 forces every
	// pretrusted peer to hold ≥ a/|P| = 5.5% of all trust, which
	// contradicts the paper's own Figure 8(a) where colluders overtake
	// pretrusted peers; we default to 0.15 and expose 0.5 as an ablation.
	PretrustMix float64

	// Social topology.
	FriendsPerNode       IntRange // random friendships per node, default [3,6]
	RelationshipsNormal  IntRange // [1,2] relationships per normal friendship
	RelationshipsCollude IntRange // [3,5] per collusion edge
	// HomophilyBias is the probability a random friendship is drawn from
	// interest neighbors rather than uniformly (trace observation O6 /
	// homophily); default 0.7.
	HomophilyBias float64
	// ColluderDistance places collusion partners at the given social
	// distance (1 = direct edge, 2 or 3 = chained through intermediates,
	// used by the Figure 20 sweep). Default 1. Values > 1 suppress the
	// colluders' random friendships so the controlled distance holds.
	ColluderDistance int

	// Collusion behavior.
	Collusion             CollusionModel
	CollusionRatings      IntRange // ratings a boosting node sends per query cycle
	MMMBackRatings        int      // ratings a boosted node returns per query cycle (MMM)
	NumBoosted            int      // boosted colluders in MCM/MMM (7)
	CompromisedPretrusted int      // pretrusted nodes joining the collusion (Figures 10, 15)
	FalsifiedSocialInfo   bool     // Section 5.8: one relationship, identical fake interest profiles
	// OscillationCycle enables the oscillation (traitor) attack TrustGuard
	// was designed against: colluders serve with OscillationHighQoS for
	// this many simulation cycles (their "honeymoon"), then defect to
	// ColluderGood. Zero disables (colluders serve at ColluderGood
	// throughout). Combined with WhitewashThreshold, a whitewashed
	// colluder starts a fresh honeymoon — the repeating con.
	OscillationCycle int
	// OscillationHighQoS is the build-up phase QoS (default 0.95).
	OscillationHighQoS float64
	// WhitewashThreshold enables the whitewashing attack: at the end of
	// each simulation cycle, any colluder whose normalized reputation has
	// fallen below this value abandons its identity and re-enters fresh —
	// the engine forgets it entirely, its social edges are rebuilt, and
	// (with OscillationCycle set) it starts a new honeymoon. Zero
	// disables.
	WhitewashThreshold float64
	// SlanderVictims enables the paper's negative-rating collusion variant
	// ("similar results can be obtained for the collusion of negative
	// ratings"): that many normal peers are adopted as victims, and each
	// colluder floods its assigned victim with negative ratings at the
	// collusion frequency — the B4 pattern at network scale. Zero disables.
	SlanderVictims int

	// Reputation system.
	Engine      EngineKind
	SocialTrust bool        // wrap the engine with the SocialTrust filter
	Filter      core.Config // SocialTrust parameters (NumNodes is filled in)

	// Managers is the size of the resource-manager overlay (the paper's
	// Section 4.3 architecture) every rating is routed through: ratings are
	// submitted to the overlay's shards, and the periodic reputation update
	// is driven through its drain/merge path. Zero means one shard. Without
	// injected faults, results are bit-identical for every shard count.
	Managers int

	// Cluster, when positive, hosts the manager shards in that many worker
	// processes (cmd/socialtrust-shardd children of this process) driven over
	// the socket transport instead of in-process goroutines; capped at
	// Managers. Reputations, detection tables and audit streams are
	// bit-identical to the in-process overlay. Mutually exclusive with
	// StateDir: the workers own their shards' WALs, while run-state snapshots
	// are a single-process feature.
	Cluster int

	// Churn, when enabled, applies session churn to the non-pretrusted
	// population each simulation cycle (see ChurnConfig).
	Churn ChurnConfig

	// Faults, when enabled, runs the manager overlay in fault-tolerant mode
	// against a deterministic fault-injection plan (message drops/delays/
	// duplication and shard crash/restart schedules — see internal/fault),
	// injected at the manager mailbox boundary. Replica failover needs at
	// least two shards: a single shard has no mirror to fall back on.
	Faults fault.Config

	// Harness.
	Seed    uint64
	Workers int // parallelism of the query-intent phase; 0 = GOMAXPROCS

	// FullRecompute disables the incremental interval engine end to end:
	// the SocialTrust signal cache is bypassed and EigenTrust
	// rebuilds its trust matrix from scratch every interval. It is the
	// reference mode TestFullSimIncrementalBitIdentity pins the incremental
	// path against; production runs leave it false.
	FullRecompute bool

	// AuditDir, when non-empty, makes Run record the decision-audit trail:
	// the package-level flight recorder (internal/obs/event) is enabled for
	// the run and on completion the ground truth plus every FilterDecision,
	// CycleSeries and ManagerEvent are written to this directory in the
	// internal/audit layout, ready for cmd/socialtrust-audit. The recorder
	// is process-global, so audited runs must not execute concurrently —
	// concurrent runs would interleave their events.
	AuditDir string

	// StateDir, when non-empty, makes the run durable: every accepted rating
	// is journaled to its manager shard's write-ahead log under
	// <StateDir>/shards before it is acknowledged, and a snapshot of the
	// complete run state — ledger history, social graph, reputation vectors,
	// filter state, RNG stream positions, fault-plan state and the audit
	// event stream — is written atomically at every interval boundary. A run
	// restarted over the same directory after a crash loads the last
	// snapshot, replays the WAL tails (truncating a torn final record), and
	// resumes mid-interval, producing reputations, detection tables and audit
	// event streams bit-identical to an uninterrupted run of the same seed.
	// The directory must either be fresh or have been written by the same
	// configuration; only Workers and the output directories
	// (AuditDir/TraceDir) may differ between the original and the resumed
	// process.
	StateDir string

	// TraceDir, when non-empty, makes Run record the interval trace: the
	// package-level span recorder (internal/obs/span) is enabled for the run
	// and on completion the span stream (trace_spans.jsonl) plus a Chrome
	// trace-event export (trace_chrome.json, loadable in Perfetto) are
	// written to this directory, ready for cmd/socialtrust-trace. Pointing
	// it at AuditDir puts the spans next to the event streams
	// (filter_decisions.jsonl, cycle_series.jsonl, ...). Like the flight
	// recorder, the span recorder is process-global: traced runs must not
	// execute concurrently. Tracing never changes results — reputations,
	// detection tables and audit streams are bit-identical with it on or off.
	TraceDir string
}

// DefaultConfig returns the paper's Section 5.1 setup with the given
// collusion model, engine, colluder QoS probability B, and SocialTrust
// toggle.
func DefaultConfig(model CollusionModel, engine EngineKind, b float64, socialTrust bool) Config {
	cfg := Config{
		NumNodes:             200,
		NumInterests:         20,
		InterestsPer:         IntRange{1, 10},
		NumPretrusted:        9,
		NumColluders:         30,
		Activity:             FloatRange{0.5, 1},
		Capacity:             50,
		QueryCycles:          30,
		SimulationCycles:     50,
		PretrustedGood:       1.0,
		NormalGood:           0.8,
		ColluderGood:         b,
		SelectionThreshold:   0.01,
		Exploration:          0.1,
		PretrustMix:          0.15,
		FriendsPerNode:       IntRange{3, 6},
		RelationshipsNormal:  IntRange{1, 2},
		RelationshipsCollude: IntRange{3, 5},
		HomophilyBias:        0.7,
		ColluderDistance:     1,
		Collusion:            model,
		MMMBackRatings:       5,
		NumBoosted:           7,
		Engine:               engine,
		SocialTrust:          socialTrust,
		Seed:                 1,
	}
	switch model {
	case PCM:
		cfg.CollusionRatings = IntRange{20, 20}
	case MCM:
		cfg.CollusionRatings = IntRange{3, 7}
	case MMM:
		cfg.CollusionRatings = IntRange{20, 20}
	}
	return cfg
}

func (c Config) withDefaults() Config {
	if c.NumNodes == 0 {
		c = DefaultConfig(c.Collusion, c.Engine, c.ColluderGood, c.SocialTrust)
	}
	if c.ColluderDistance == 0 {
		c.ColluderDistance = 1
	}
	if c.PretrustMix == 0 {
		c.PretrustMix = 0.15
	}
	if c.Workers == 0 {
		c.Workers = defaultWorkers()
	}
	if c.Managers == 0 {
		c.Managers = 1
	}
	return c
}

// validate rejects impossible experiment setups.
func (c Config) validate() error {
	if c.NumNodes < 2 {
		return fmt.Errorf("sim: NumNodes %d too small", c.NumNodes)
	}
	if c.NumPretrusted+c.NumColluders > c.NumNodes {
		return fmt.Errorf("sim: %d pretrusted + %d colluders exceed %d nodes",
			c.NumPretrusted, c.NumColluders, c.NumNodes)
	}
	if c.NumInterests <= 0 {
		return fmt.Errorf("sim: NumInterests must be positive")
	}
	if c.InterestsPer.Lo < 1 || c.InterestsPer.Hi > c.NumInterests || c.InterestsPer.Lo > c.InterestsPer.Hi {
		return fmt.Errorf("sim: invalid InterestsPer %+v", c.InterestsPer)
	}
	if c.QueryCycles <= 0 || c.SimulationCycles <= 0 {
		return fmt.Errorf("sim: cycles must be positive")
	}
	if c.Collusion == MCM || c.Collusion == MMM {
		if c.NumBoosted <= 0 || c.NumBoosted >= c.NumColluders {
			return fmt.Errorf("sim: NumBoosted %d invalid for %d colluders", c.NumBoosted, c.NumColluders)
		}
	}
	if c.Collusion == PCM && c.NumColluders%2 != 0 {
		return fmt.Errorf("sim: PCM requires an even colluder count, got %d", c.NumColluders)
	}
	if c.CompromisedPretrusted > c.NumPretrusted {
		return fmt.Errorf("sim: %d compromised of %d pretrusted", c.CompromisedPretrusted, c.NumPretrusted)
	}
	if c.ColluderDistance < 1 || c.ColluderDistance > 3 {
		return fmt.Errorf("sim: ColluderDistance %d outside [1,3]", c.ColluderDistance)
	}
	if normals := c.NumNodes - c.NumPretrusted - c.NumColluders; c.SlanderVictims > normals {
		return fmt.Errorf("sim: %d slander victims exceed %d normal peers", c.SlanderVictims, normals)
	}
	if c.Managers < 0 || c.Managers > c.NumNodes {
		return fmt.Errorf("sim: Managers %d invalid for %d nodes", c.Managers, c.NumNodes)
	}
	if err := c.Churn.validate(); err != nil {
		return err
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	if c.Cluster < 0 {
		return fmt.Errorf("sim: Cluster %d invalid", c.Cluster)
	}
	if c.Cluster > 0 && c.StateDir != "" {
		return fmt.Errorf("sim: Cluster and StateDir are mutually exclusive (workers own their shard WALs; run-state snapshots are single-process)")
	}
	return nil
}

// Type returns the node type for a node ID under the paper's fixed layout:
// pretrusted first, then colluders, then normal peers.
func (c Config) Type(id int) NodeType {
	switch {
	case id < c.NumPretrusted:
		return Pretrusted
	case id < c.NumPretrusted+c.NumColluders:
		return Colluder
	default:
		return Normal
	}
}

// PretrustedIDs returns the pretrusted node IDs.
func (c Config) PretrustedIDs() []int {
	out := make([]int, c.NumPretrusted)
	for i := range out {
		out[i] = i
	}
	return out
}

// ColluderIDs returns the colluder node IDs.
func (c Config) ColluderIDs() []int {
	out := make([]int, c.NumColluders)
	for i := range out {
		out[i] = c.NumPretrusted + i
	}
	return out
}
