package sim

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"socialtrust/internal/audit"
	"socialtrust/internal/cluster"
	"socialtrust/internal/core"
	"socialtrust/internal/fault"
	"socialtrust/internal/interest"
	"socialtrust/internal/manager"
	"socialtrust/internal/obs/event"
	"socialtrust/internal/rating"
	"socialtrust/internal/reputation"
	"socialtrust/internal/reputation/ebay"
	"socialtrust/internal/reputation/eigentrust"
	"socialtrust/internal/reputation/trustguard"
	"socialtrust/internal/socialgraph"
	"socialtrust/internal/xrand"
)

func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Node is one simulated peer.
type Node struct {
	ID       int
	Type     NodeType
	Good     float64 // probability of serving authentic content
	Activity float64 // probability of issuing a query each query cycle

	// Interests holds the node's true interest profile; Claimed is what it
	// publishes (differs only under falsified social information).
	Interests interest.Set
	// InterestList caches the true interests in popularity order for
	// power-law request sampling.
	InterestList []interest.Category

	rng *xrand.Stream
	// honeymoon counts the remaining simulation cycles of high-QoS
	// behavior before an oscillating colluder defects.
	honeymoon int
}

// collusionEdge is one directed collusion relationship: From rates To with
// Ratings ratings of the given Value per query cycle; Back > 0 adds reverse
// ratings (MMM and the pair-wise models). Value zero means +1 (boosting);
// slander edges carry −1.
type collusionEdge struct {
	From, To int
	Ratings  int
	Back     int
	Value    float64
}

func (e *collusionEdge) value() float64 {
	if e.Value == 0 {
		return 1
	}
	return e.Value
}

// Network is a fully constructed experiment instance: topology, node
// population, collusion wiring, manager overlay, and reputation engine.
type Network struct {
	Cfg     Config
	Nodes   []*Node
	Graph   *socialgraph.Graph
	Sets    []interest.Set // claimed interest profiles (see Node.Interests)
	Tracker *interest.Tracker
	Engine  reputation.Engine
	// Filter is non-nil when the engine is wrapped with SocialTrust.
	Filter *core.SocialTrust
	// Overlay is the paper's resource-manager overlay: every rating is
	// submitted to it and the periodic reputation update is driven through
	// its drain.
	Overlay *manager.Overlay
	// FaultPlan is non-nil when Config.Faults is enabled: the overlay runs
	// in fault-tolerant mode against this deterministic injection plan.
	FaultPlan *fault.Plan
	// cluster is non-nil when Config.Cluster > 0: the spawned worker fleet
	// hosting the overlay's shards out of process. clusterDir is the
	// temporary root of the workers' WAL directories; both are torn down
	// after the overlay closes.
	cluster    *cluster.ProcCluster
	clusterDir string

	// byCategory[c] lists the nodes whose claimed profile includes c —
	// the candidate server pool for a category-c request.
	byCategory [][]int

	colludeEdges   []collusionEdge
	slanderVictims []int

	// online[id] tracks churn presence; every entry is true when churn is
	// disabled. ratingsLost counts submissions lost to injected faults.
	online      []bool
	churnRNG    *xrand.Stream
	ratingsLost int

	// pending buffers ratings bound for the manager overlay within one query
	// cycle; flushRatings ships the whole buffer via SubmitBatch — one
	// batch per shard instead of one round trip per rating.
	pending []rating.Rating

	// inner is the bare reputation engine (the same object Engine is, or
	// wraps) — the handle state snapshots export from and import into.
	inner reputation.Engine

	// Durability layer (zero without Config.StateDir, except seq). seq
	// numbers every generated rating, the WAL-replay dedupe key; resume holds
	// the interval-boundary snapshot found at construction, applied at the
	// top of Run; savedEvents accumulates the audit events drained into
	// checkpoints so the final stream spans the whole (possibly
	// multi-process) run.
	seq         uint64
	resume      *runState
	savedEvents []event.Event

	// haltAt, when non-nil, abandons the run right before executing query
	// cycle qc of simulation cycle cycle — the crash-restart tests' stand-in
	// for the process dying mid-interval (WAL appends are already flushed to
	// the OS, exactly what a kill -9 would leave behind).
	haltAt *haltPoint

	root *xrand.Stream
}

// haltPoint is the crash-injection coordinate of the haltAt test hook.
type haltPoint struct{ cycle, qc int }

// NewNetwork constructs the experiment per Config. Construction is
// deterministic in Config.Seed. It starts the manager overlay's shards;
// Run stops them when it finishes.
func NewNetwork(cfg Config) (*Network, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	root := xrand.New(cfg.Seed)
	n := &Network{
		Cfg:     cfg,
		Graph:   socialgraph.New(cfg.NumNodes),
		Tracker: interest.NewTracker(cfg.NumNodes),
		root:    root,
	}
	n.buildNodes(root.SplitString("nodes"))
	// Collusion links are wired before the random topology so the
	// controlled relationship counts and distances cannot be perturbed by
	// pre-existing random edges (buildTopology skips adjacent pairs).
	n.wireCollusion(root.SplitString("collusion"))
	n.buildTopology(root.SplitString("topology"))
	if cfg.FalsifiedSocialInfo {
		n.falsifyProfiles(root.SplitString("falsify"))
	}
	n.indexCategories()
	n.buildEngine()
	if err := n.buildOverlay(); err != nil {
		return nil, err
	}
	if cfg.StateDir != "" {
		if err := n.initPersist(); err != nil {
			n.Overlay.Close()
			return nil, err
		}
	}
	n.online = make([]bool, cfg.NumNodes)
	for i := range n.online {
		n.online[i] = true
	}
	n.churnRNG = root.SplitString("churn")
	return n, nil
}

// buildNodes draws each peer's type, QoS, activity and interest profile.
func (n *Network) buildNodes(rng *xrand.Stream) {
	cfg := n.Cfg
	n.Nodes = make([]*Node, cfg.NumNodes)
	n.Sets = make([]interest.Set, cfg.NumNodes)
	for id := 0; id < cfg.NumNodes; id++ {
		nodeRNG := rng.Split(uint64(id))
		typ := cfg.Type(id)
		good := cfg.NormalGood
		switch typ {
		case Pretrusted:
			good = cfg.PretrustedGood
		case Colluder:
			good = cfg.ColluderGood
		}
		k := nodeRNG.IntRange(cfg.InterestsPer.Lo, cfg.InterestsPer.Hi)
		// Section 5.1 gives colluders "less common interests": collusion
		// partners draw from disjoint halves of the category space (even
		// colluder index → lower half, odd → upper half; boost targets are
		// chosen with opposite parity), so partner interest similarity is
		// low by construction as in the paper's setup.
		var excluded func(int) bool
		if typ == Colluder {
			half := cfg.NumInterests / 2
			lowerHalf := (id-cfg.NumPretrusted)%2 == 0
			excluded = func(c int) bool {
				if lowerHalf {
					return c >= half
				}
				return c < half
			}
			if limit := half; k > limit {
				k = limit
			}
		}
		cats := nodeRNG.SampleWithout(cfg.NumInterests, k, excluded)
		list := make([]interest.Category, k)
		set := interest.Set{}
		for i, c := range cats {
			list[i] = interest.Category(c)
			set.Add(interest.Category(c))
		}
		n.Nodes[id] = &Node{
			ID:           id,
			Type:         typ,
			Good:         good,
			Activity:     nodeRNG.FloatRange(cfg.Activity.Lo, cfg.Activity.Hi),
			Interests:    set,
			InterestList: list,
			rng:          nodeRNG.SplitString("run"),
		}
		n.Sets[id] = set
	}
}

// buildTopology wires the random friendship graph with homophily bias:
// each node befriends FriendsPerNode peers, preferring interest neighbors,
// each friendship carrying RelationshipsNormal typed relationships. When
// ColluderDistance > 1, colluders receive no random friendships so the
// controlled collusion distance of wireCollusion holds.
func (n *Network) buildTopology(rng *xrand.Stream) {
	cfg := n.Cfg
	kinds := []socialgraph.RelationshipKind{
		socialgraph.Friendship, socialgraph.Classmate,
		socialgraph.Colleague, socialgraph.Kinship,
	}
	// Precompute interest-neighbor lists on true profiles.
	interestNeighbors := make([][]int, cfg.NumNodes)
	for c := 0; c < cfg.NumInterests; c++ {
		var members []int
		for id, node := range n.Nodes {
			if node.Interests.Contains(interest.Category(c)) {
				members = append(members, id)
			}
		}
		for _, id := range members {
			interestNeighbors[id] = append(interestNeighbors[id], members...)
		}
	}
	skipRandom := func(id int) bool {
		return cfg.ColluderDistance > 1 && cfg.Type(id) == Colluder
	}
	for id := 0; id < cfg.NumNodes; id++ {
		if skipRandom(id) {
			continue
		}
		nodeRNG := rng.Split(uint64(id))
		want := nodeRNG.IntRange(cfg.FriendsPerNode.Lo, cfg.FriendsPerNode.Hi)
		for k := 0; k < want; k++ {
			var friend int
			if nodeRNG.Bool(cfg.HomophilyBias) && len(interestNeighbors[id]) > 0 {
				friend = interestNeighbors[id][nodeRNG.Intn(len(interestNeighbors[id]))]
			} else {
				friend = nodeRNG.Intn(cfg.NumNodes)
			}
			if friend == id || skipRandom(friend) || n.Graph.Adjacent(socialgraph.NodeID(id), socialgraph.NodeID(friend)) {
				continue
			}
			rels := nodeRNG.IntRange(cfg.RelationshipsNormal.Lo, cfg.RelationshipsNormal.Hi)
			for r := 0; r < rels; r++ {
				n.Graph.AddRelationship(socialgraph.NodeID(id), socialgraph.NodeID(friend),
					socialgraph.Relationship{Kind: kinds[nodeRNG.Intn(len(kinds))]})
			}
		}
	}
}

// addCollusionLink creates the social tie between collusion partners. At
// distance 1 it is a direct multi-relationship edge; at 2 or 3 the partners
// connect through dedicated normal intermediaries.
func (n *Network) addCollusionLink(a, b int, rng *xrand.Stream) {
	cfg := n.Cfg
	relCount := func() int {
		if cfg.FalsifiedSocialInfo {
			// Section 5.8: colluders falsify down to one relationship.
			return 1
		}
		return rng.IntRange(cfg.RelationshipsCollude.Lo, cfg.RelationshipsCollude.Hi)
	}
	link := func(x, y int, rels int) {
		if n.Graph.Adjacent(socialgraph.NodeID(x), socialgraph.NodeID(y)) {
			return
		}
		for r := 0; r < rels; r++ {
			n.Graph.AddRelationship(socialgraph.NodeID(x), socialgraph.NodeID(y),
				socialgraph.Relationship{Kind: socialgraph.Friendship})
		}
	}
	switch cfg.ColluderDistance {
	case 1:
		link(a, b, relCount())
	default:
		// Chain through ColluderDistance−1 distinct normal peers.
		prev := a
		for hop := 1; hop < cfg.ColluderDistance; hop++ {
			mid := n.randomNormalNode(rng)
			for mid == prev || mid == b {
				mid = n.randomNormalNode(rng)
			}
			link(prev, mid, 1)
			prev = mid
		}
		link(prev, b, 1)
	}
}

func (n *Network) randomNormalNode(rng *xrand.Stream) int {
	cfg := n.Cfg
	lo := cfg.NumPretrusted + cfg.NumColluders
	return lo + rng.Intn(cfg.NumNodes-lo)
}

// wireCollusion builds the collusion edges for the configured model and the
// compromised-pretrusted extension.
func (n *Network) wireCollusion(rng *xrand.Stream) {
	cfg := n.Cfg
	colluders := cfg.ColluderIDs()
	ratings := func() int {
		return rng.IntRange(cfg.CollusionRatings.Lo, cfg.CollusionRatings.Hi)
	}
	switch cfg.Collusion {
	case NoCollusion:
		// No rating collusion; malicious peers only serve low QoS.
	case PCM:
		for i := 0; i+1 < len(colluders); i += 2 {
			a, b := colluders[i], colluders[i+1]
			n.addCollusionLink(a, b, rng)
			r := ratings()
			n.colludeEdges = append(n.colludeEdges,
				collusionEdge{From: a, To: b, Ratings: r},
				collusionEdge{From: b, To: a, Ratings: r},
			)
		}
	case MCM, MMM:
		boosted := make([]int, cfg.NumBoosted)
		perm := rng.Perm(len(colluders))
		for i := range boosted {
			boosted[i] = colluders[perm[i]]
		}
		isBoosted := make(map[int]bool, len(boosted))
		for _, b := range boosted {
			isBoosted[b] = true
		}
		for _, c := range colluders {
			if isBoosted[c] {
				continue
			}
			// Prefer a boosted target of opposite interest parity so the
			// booster/boosted pair shares few interests (Section 5.1).
			opposite := make([]int, 0, len(boosted))
			for _, b := range boosted {
				if (b-c)%2 != 0 {
					opposite = append(opposite, b)
				}
			}
			pool := boosted
			if len(opposite) > 0 {
				pool = opposite
			}
			target := pool[rng.Intn(len(pool))]
			n.addCollusionLink(c, target, rng)
			back := 0
			if cfg.Collusion == MMM {
				back = cfg.MMMBackRatings
			}
			n.colludeEdges = append(n.colludeEdges,
				collusionEdge{From: c, To: target, Ratings: ratings(), Back: back})
		}
	}
	// Slander extension: each colluder floods a high-similarity normal
	// victim with negative ratings — the network-scale B4 attack.
	if cfg.SlanderVictims > 0 {
		n.wireSlander(rng, colluders)
	}
	// Compromised pretrusted peers each pick a colluder and collude
	// pair-wise at the forward rating frequency (Figures 10 and 15).
	if cfg.CompromisedPretrusted > 0 {
		perm := rng.Perm(cfg.NumPretrusted)
		for i := 0; i < cfg.CompromisedPretrusted; i++ {
			p := perm[i]
			c := colluders[rng.Intn(len(colluders))]
			n.addCollusionLink(p, c, rng)
			r := cfg.CollusionRatings.Hi
			if r == 0 {
				r = 20
			}
			n.colludeEdges = append(n.colludeEdges,
				collusionEdge{From: p, To: c, Ratings: r},
				collusionEdge{From: c, To: p, Ratings: r},
			)
		}
	}
}

// falsifyProfiles implements Section 5.8: every colluder publishes an
// identical fabricated interest profile of [1,10] categories. True interests
// (and therefore true request behavior) are unchanged.
func (n *Network) falsifyProfiles(rng *xrand.Stream) {
	cfg := n.Cfg
	k := rng.IntRange(1, 10)
	if k > cfg.NumInterests {
		k = cfg.NumInterests
	}
	fake := interest.Set{}
	for _, c := range rng.SampleWithout(cfg.NumInterests, k, nil) {
		fake.Add(interest.Category(c))
	}
	for _, id := range cfg.ColluderIDs() {
		n.Sets[id] = fake
	}
}

// indexCategories builds the per-category server candidate pools from the
// claimed profiles (requests are routed by what peers advertise).
func (n *Network) indexCategories() {
	n.byCategory = make([][]int, n.Cfg.NumInterests)
	for id := range n.Nodes {
		for _, c := range n.Sets[id].Categories() {
			n.byCategory[c] = append(n.byCategory[c], id)
		}
	}
}

// buildEngine instantiates the reputation engine and optional SocialTrust
// wrapper.
func (n *Network) buildEngine() {
	cfg := n.Cfg
	var inner reputation.Engine
	switch cfg.Engine {
	case EngineEBay:
		inner = ebay.New(cfg.NumNodes)
	case EngineTrustGuard:
		inner = trustguard.New(trustguard.Config{NumNodes: cfg.NumNodes})
	default:
		inner = eigentrust.New(eigentrust.Config{
			NumNodes:       cfg.NumNodes,
			Pretrusted:     cfg.PretrustedIDs(),
			PretrustWeight: cfg.PretrustMix,
			Workers:        cfg.Workers,
			FullRecompute:  cfg.FullRecompute,
		})
	}
	n.inner = inner
	if !cfg.SocialTrust {
		n.Engine = inner
		return
	}
	fc := cfg.Filter
	fc.NumNodes = cfg.NumNodes
	fc.FullRecompute = cfg.FullRecompute
	if fc.Workers == 0 {
		fc.Workers = cfg.Workers
	}
	if cfg.FalsifiedSocialInfo {
		// Section 4.4 hardening: weighted relationships and
		// request-weighted similarity when profiles may be fabricated.
		fc.Closeness = socialgraph.ClosenessParams{Weighted: true, Lambda: 0.75, MaxPathHops: 6}
		fc.WeightedSimilarity = true
	}
	st := core.New(fc, n.Graph, n.Sets, n.Tracker, inner)
	n.Engine = st
	n.Filter = st
}

// buildOverlay fronts the engine with the resource-manager overlay every
// rating is routed through.
func (n *Network) buildOverlay() error {
	var opts manager.Options
	if n.Cfg.Faults.Enabled() {
		plan, err := fault.NewPlan(n.Cfg.Faults, n.Cfg.Managers)
		if err != nil {
			return err
		}
		n.FaultPlan = plan
		opts.Fault = plan
		// Retry backoff at simulation time-scale: a paper-geometry run under
		// 10% drop retries hundreds of thousands of deliveries, and the
		// overlay's production default (200µs doubling) would dominate wall
		// time with sleeps that model no simulated quantity.
		opts.RetryBackoff = 20 * time.Microsecond
		// Delivery timeouts are a liveness backstop here, not a simulated
		// quantity: injected drops already surface as deterministic
		// ErrTimeout verdicts, while a *spurious* wall-clock timeout (the
		// production 5ms default firing on a loaded machine or under the
		// race detector) adds extra delivery attempts, and every attempt
		// draws from the per-shard fault-verdict stream — shifting it
		// diverges reputations run-to-run. Generous bounds keep the
		// deadlock protection while leaving the seeded plan as the only
		// source of loss. Down shards are detected via their down flag,
		// never by waiting out these deadlines, so chaos runs don't slow.
		opts.SubmitTimeout = 2 * time.Second
		opts.DrainTimeout = 30 * time.Second
	}
	if n.Cfg.StateDir != "" {
		// Shard WALs live in their own subdirectory so the run-level
		// snapshot and the per-shard journals cannot collide.
		opts.StateDir = filepath.Join(n.Cfg.StateDir, "shards")
	}
	if n.Cfg.Cluster > 0 {
		// Out-of-process shards: spawn the worker fleet and route every
		// shard through its socket transport. Workers journal to their own
		// WALs under a temporary root so a killed-and-respawned worker
		// recovers its acknowledged tail.
		dir, err := os.MkdirTemp("", "stclst")
		if err != nil {
			return err
		}
		pc, err := cluster.Spawn(cluster.SpawnOptions{
			Workers:  n.Cfg.Cluster,
			Shards:   n.Cfg.Managers,
			StateDir: dir,
		})
		if err != nil {
			_ = os.RemoveAll(dir)
			return err
		}
		n.cluster = pc
		n.clusterDir = dir
		opts.Transport = pc.Client()
	}
	o, err := manager.NewWithOptions(n.Cfg.NumNodes, n.Cfg.Managers, n.Engine, opts)
	if err != nil {
		n.closeCluster()
		return err
	}
	n.Overlay = o
	return nil
}

// closeCluster tears down the worker fleet and its WAL directory. Safe to
// call repeatedly; must run only after the overlay has closed (the transport
// is dead afterwards).
func (n *Network) closeCluster() {
	if n.cluster != nil {
		_ = n.cluster.Close()
		n.cluster = nil
	}
	if n.clusterDir != "" {
		if os.Getenv("STSIM_KEEP_CLUSTER_DIR") == "" {
			_ = os.RemoveAll(n.clusterDir)
		} else {
			fmt.Fprintf(os.Stderr, "cluster dir kept: %s\n", n.clusterDir)
		}
		n.clusterDir = ""
	}
}

// wireSlander builds the negative-collusion edges: each colluder attacks a
// genuine business competitor — a normal peer sharing at least 70% interest
// similarity with it (the paper's B4 premise) — flooding it with negative
// ratings at the collusion frequency. At most SlanderVictims distinct
// victims are adopted; colluders without a sufficiently similar competitor
// do not attack.
func (n *Network) wireSlander(rng *xrand.Stream, colluders []int) {
	cfg := n.Cfg
	const minSim = 0.7
	freq := cfg.CollusionRatings.Hi
	if freq == 0 {
		freq = 20
	}
	var victims []int
	sim := func(a, b int) float64 {
		return interest.Similarity(n.Nodes[a].Interests, n.Nodes[b].Interests)
	}
	for _, c := range colluders {
		// Prefer an already-adopted victim the colluder competes with.
		best, bestSim := -1, minSim
		for _, v := range victims {
			if s := sim(c, v); s >= bestSim {
				best, bestSim = v, s
			}
		}
		// Otherwise scout for a fresh competitor if the pool has room.
		if best < 0 && len(victims) < cfg.SlanderVictims {
			for tries := 0; tries < 64; tries++ {
				v := n.randomNormalNode(rng)
				if s := sim(c, v); s >= bestSim {
					best, bestSim = v, s
				}
			}
			if best >= 0 {
				victims = append(victims, best)
			}
		}
		if best < 0 {
			continue
		}
		n.colludeEdges = append(n.colludeEdges, collusionEdge{
			From: c, To: best, Ratings: freq, Value: -1,
		})
	}
	n.slanderVictims = victims
}

// SlanderVictimIDs returns the normal peers targeted by the slander
// extension (empty unless Config.SlanderVictims > 0).
func (n *Network) SlanderVictimIDs() []int {
	return append([]int(nil), n.slanderVictims...)
}

// startHoneymoon puts an oscillating colluder into its high-QoS build-up
// phase.
func (n *Network) startHoneymoon(node *Node) {
	high := n.Cfg.OscillationHighQoS
	if high == 0 {
		high = 0.95
	}
	node.Good = high
	// The counter decrements at the start of each cycle, so +1 yields
	// exactly OscillationCycle full cycles of good behavior.
	node.honeymoon = n.Cfg.OscillationCycle + 1
}

// whitewash re-enters a colluder under a fresh identity in the same ID
// slot: every engine and filter aggregate about it is forgotten, its social
// edges are torn down and rebuilt (fresh random friendships plus its
// collusion links — the clique re-friends instantly), its request history
// clears, and, when oscillation is configured, a new honeymoon begins. Its
// true interests stay (same human, new account), which keeps the category
// index valid.
func (n *Network) whitewash(id int) {
	cfg := n.Cfg
	node := n.Nodes[id]
	n.Engine.ResetNode(id)
	n.Graph.RemoveNodeEdges(socialgraph.NodeID(id))
	n.Tracker.ResetNode(id)

	// Fresh random friendships, drawn from the node's own stream.
	rng := node.rng
	kinds := []socialgraph.RelationshipKind{
		socialgraph.Friendship, socialgraph.Classmate,
		socialgraph.Colleague, socialgraph.Kinship,
	}
	want := rng.IntRange(cfg.FriendsPerNode.Lo, cfg.FriendsPerNode.Hi)
	for k := 0; k < want; k++ {
		friend := rng.Intn(cfg.NumNodes)
		if friend == id || n.Graph.Adjacent(socialgraph.NodeID(id), socialgraph.NodeID(friend)) {
			continue
		}
		rels := rng.IntRange(cfg.RelationshipsNormal.Lo, cfg.RelationshipsNormal.Hi)
		for r := 0; r < rels; r++ {
			n.Graph.AddRelationship(socialgraph.NodeID(id), socialgraph.NodeID(friend),
				socialgraph.Relationship{Kind: kinds[rng.Intn(len(kinds))]})
		}
	}
	// The clique re-establishes its collusion ties.
	for _, e := range n.colludeEdges {
		if e.From == id || e.To == id {
			n.addCollusionLink(e.From, e.To, rng)
		}
	}
	if cfg.OscillationCycle > 0 && node.Type == Colluder {
		n.startHoneymoon(node)
	}
}

// churnStep applies one simulation cycle's churn transitions: online
// non-pretrusted peers depart, offline peers rejoin — some under a fresh
// identity (whitewash-rejoin). Returns the cycle's departure and rejoin
// counts.
func (n *Network) churnStep(res *Result) (departed, rejoined int) {
	ch := n.Cfg.Churn
	for id := n.Cfg.NumPretrusted; id < n.Cfg.NumNodes; id++ {
		if n.online[id] {
			if n.churnRNG.Bool(ch.DepartPerCycle) {
				n.online[id] = false
				departed++
			}
			continue
		}
		if n.churnRNG.Bool(ch.RejoinPerCycle) {
			n.online[id] = true
			rejoined++
			if ch.WhitewashFraction > 0 && n.churnRNG.Bool(ch.WhitewashFraction) {
				n.whitewash(id)
				res.Churn.WhitewashRejoins++
				mChurnWash.Inc()
			}
		}
	}
	res.Churn.Departures += departed
	res.Churn.Rejoins += rejoined
	mChurnDepart.Add(int64(departed))
	mChurnRejoin.Add(int64(rejoined))
	return departed, rejoined
}

// onlineCount reports the currently online population.
func (n *Network) onlineCount() int {
	c := 0
	for _, up := range n.online {
		if up {
			c++
		}
	}
	return c
}

// ColluderIDs forwards the configured colluder ID set.
func (n *Network) ColluderIDs() []int { return n.Cfg.ColluderIDs() }

// GroundTruth serializes the run's collusion truth for the decision-audit
// layer: node roles plus every directed collusion rating edge (MMM
// back-rating edges expand into their own directed entries).
func (n *Network) GroundTruth() audit.GroundTruth {
	cfg := n.Cfg
	gt := audit.GroundTruth{
		NumNodes:              cfg.NumNodes,
		Model:                 cfg.Collusion.String(),
		Engine:                n.Engine.Name(),
		Seed:                  cfg.Seed,
		Pretrusted:            cfg.PretrustedIDs(),
		Colluders:             cfg.ColluderIDs(),
		CompromisedPretrusted: n.CompromisedIDs(),
		SlanderVictims:        n.SlanderVictimIDs(),
	}
	for i := range n.colludeEdges {
		e := &n.colludeEdges[i]
		neg := e.value() < 0
		gt.Edges = append(gt.Edges, audit.TruthEdge{From: e.From, To: e.To, Negative: neg})
		if e.Back > 0 {
			gt.Edges = append(gt.Edges, audit.TruthEdge{From: e.To, To: e.From, Negative: neg})
		}
	}
	return gt
}

// CompromisedIDs returns the pretrusted nodes wired into the collusion.
func (n *Network) CompromisedIDs() []int {
	seen := map[int]bool{}
	var out []int
	for _, e := range n.colludeEdges {
		for _, id := range []int{e.From, e.To} {
			if n.Cfg.Type(id) == Pretrusted && !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	return out
}
