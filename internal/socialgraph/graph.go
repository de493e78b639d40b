// Package socialgraph implements the social-network substrate SocialTrust
// consumes: an undirected friendship multigraph with typed, weighted
// relationships, a directed interaction-frequency table, breadth-first
// social distance, common-friend queries, and the social-closeness metric
// Ωc of the paper (Equations 2, 3, 4, and the falsification-resistant
// weighted form, Equation 10).
package socialgraph

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// NodeID identifies a peer in the social network. IDs are dense indices in
// [0, NumNodes) so the graph can use slice-backed adjacency.
type NodeID int

// RelationshipKind is the type of a social relationship between two peers.
// The paper's Equation 10 weights relationship kinds differently (e.g.
// kinship counts more than an online friendship).
type RelationshipKind int

// Relationship kinds ordered roughly by social strength. The associated
// default weights are exposed via DefaultWeight.
const (
	Friendship RelationshipKind = iota
	Classmate
	Colleague
	Kinship
	numRelationshipKinds
)

// String implements fmt.Stringer for diagnostics.
func (k RelationshipKind) String() string {
	switch k {
	case Friendship:
		return "friendship"
	case Classmate:
		return "classmate"
	case Colleague:
		return "colleague"
	case Kinship:
		return "kinship"
	default:
		return fmt.Sprintf("RelationshipKind(%d)", int(k))
	}
}

// DefaultWeight returns the default closeness weight w_d of a relationship
// kind used by Equation 10. Weights are in (0,1] and kinship is strongest.
func (k RelationshipKind) DefaultWeight() float64 {
	switch k {
	case Kinship:
		return 1.0
	case Colleague:
		return 0.8
	case Classmate:
		return 0.7
	case Friendship:
		return 0.6
	default:
		return 0.5
	}
}

// Relationship is a single typed social tie on an edge. An edge carries one
// or more relationships; the paper assigns [1,2] relationships to normal
// pairs and [3,5] to colluding pairs in its experiments.
type Relationship struct {
	Kind   RelationshipKind
	Weight float64 // in (0,1]; zero means "use Kind.DefaultWeight()"
}

// weight resolves the effective weight of the relationship.
func (r Relationship) weight() float64 {
	if r.Weight > 0 {
		return r.Weight
	}
	return r.Kind.DefaultWeight()
}

// halfEdge is one direction of a friendship edge: the neighbour and the
// relationship list, in insertion order. Each endpoint holds its own copy.
type halfEdge struct {
	to   NodeID
	rels []Relationship
}

// Graph is an undirected social multigraph plus a directed interaction
// table. Topology is guarded by an RWMutex so concurrent closeness/BFS
// queries proceed in parallel and only topology mutation
// (AddRelationship/RemoveNodeEdges) takes the exclusive lock. Interaction
// recording uses per-source striped locks, because the simulator records
// interactions from many client goroutines while queries run.
//
// Every mutator — AddRelationship, RecordInteraction, RemoveNodeEdges,
// ResetInteractions — bumps a monotonically increasing epoch counter
// (Epoch). Any value derived purely from graph state (closeness) is valid
// for as long as the epoch is unchanged, which is the invalidation contract
// the core package's signal cache is built on.
//
// Mutators additionally record which nodes they touched in a bounded touch
// log (TouchedSince), so consumers can invalidate derived state in
// proportion to the mutation — every node whose closeness could have
// changed lies within the path-hop radius of a touched node (WithinHops) —
// instead of discarding everything on any epoch movement.
//
// Each node's adjacency is a slice of half-edges sorted by neighbour ID, so
// friend lists come out in ID order without sorting, common friends are a
// merge of two sorted lists, and a lookup is a binary search.
type Graph struct {
	mu    sync.RWMutex // guards adj
	epoch atomic.Uint64

	n   int
	adj [][]halfEdge // per node, sorted by halfEdge.to

	// scratch pools the breadth-first-search state of batched closeness
	// (ClosenessFrom), one per concurrent caller.
	scratch sync.Pool

	interactions []interactionRow

	// touchMu guards the touch log and serializes epoch advancement with
	// log appends, so a reader that observes epoch e always finds every
	// touch with epoch <= e already in the log.
	touchMu    sync.Mutex
	touchLog   []touchRec
	touchFloor uint64 // TouchedSince is answerable only for since >= touchFloor
}

// touchRec is one touch-log entry: the node whose adjacency or outgoing
// interaction row changed, and the epoch the mutation advanced to. Entries
// are epoch-ascending.
type touchRec struct {
	epoch uint64
	node  NodeID
}

// maxTouchLog bounds the touch log. On overflow the log is cleared and the
// floor raised to the current epoch: consumers that synced before the floor
// get a full-invalidation signal (TouchedSince ok=false), exactly the
// pre-touch-log behavior.
const maxTouchLog = 1 << 17

type interactionRow struct {
	mu     sync.Mutex
	counts map[NodeID]float64
}

// New creates a graph with n isolated nodes.
func New(n int) *Graph {
	if n < 0 {
		panic("socialgraph: negative node count")
	}
	if n > math.MaxInt32 {
		panic("socialgraph: node count exceeds the int32 BFS queue index")
	}
	g := &Graph{
		n:            n,
		adj:          make([][]halfEdge, n),
		interactions: make([]interactionRow, n),
	}
	g.scratch.New = func() any { return newBatchScratch(n) }
	return g
}

// NumNodes reports the number of nodes in the graph.
func (g *Graph) NumNodes() int { return g.n }

// Epoch returns the graph's version counter. It increases on every mutation
// (topology or interaction); two reads observing the same epoch bracket a
// window in which every derived quantity was stable.
func (g *Graph) Epoch() uint64 { return g.epoch.Load() }

// bumpTouched advances the epoch after a mutation and records the nodes it
// touched: every node whose adjacency set or outgoing interaction row
// changed. The touch is appended before the new epoch becomes visible, so
// TouchedSince(e) run against any observed epoch e is complete.
func (g *Graph) bumpTouched(nodes ...NodeID) {
	g.touchMu.Lock()
	e := g.epoch.Load() + 1
	for _, nd := range nodes {
		// Collapse consecutive touches of the same node (the per-rating
		// interaction pattern) by raising the entry's epoch: any consumer
		// that missed the earlier touch still sees the raised one.
		if last := len(g.touchLog) - 1; last >= 0 && g.touchLog[last].node == nd {
			g.touchLog[last].epoch = e
			continue
		}
		g.touchLog = append(g.touchLog, touchRec{epoch: e, node: nd})
	}
	if len(g.touchLog) > maxTouchLog {
		g.touchLog = g.touchLog[:0]
		g.touchFloor = e
	}
	g.epoch.Store(e)
	g.touchMu.Unlock()
}

// bumpAll advances the epoch for a mutation with global reach (e.g.
// ResetInteractions): the log is cleared and the floor raised so every
// consumer falls back to full invalidation.
func (g *Graph) bumpAll() {
	g.touchMu.Lock()
	e := g.epoch.Load() + 1
	g.touchLog = g.touchLog[:0]
	g.touchFloor = e
	g.epoch.Store(e)
	g.touchMu.Unlock()
}

// TouchedSince appends to buf the nodes touched by mutations with epoch in
// (since, Epoch()] and reports whether the touch log reaches back that far.
// ok == false (overflow, or a global mutation such as ResetInteractions)
// means the caller must invalidate everything derived from the graph. The
// returned list may contain duplicates.
func (g *Graph) TouchedSince(since uint64, buf []NodeID) ([]NodeID, bool) {
	g.touchMu.Lock()
	defer g.touchMu.Unlock()
	if since < g.touchFloor {
		return buf, false
	}
	// Entries are epoch-ascending: binary-search the first one past since.
	lo, hi := 0, len(g.touchLog)
	for lo < hi {
		mid := (lo + hi) / 2
		if g.touchLog[mid].epoch > since {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	for _, r := range g.touchLog[lo:] {
		buf = append(buf, r.node)
	}
	return buf, true
}

// WithinHops appends to out every node within hops friendship hops of any
// source (the sources themselves included) and returns the extended slice.
// seen must be a caller-owned scratch slice of length NumNodes with every
// element false; the marks set during the walk are cleared before
// returning. The output order is unspecified (treat it as a set).
//
// This is the invalidation footprint query: closeness Ωc(i, ·) only ever
// reads node i itself, common friends of i (distance 1), and nodes on
// BFS paths from i (distance <= MaxHops), so any mutation's effect on
// Ωc(i, ·) requires i to lie within the closeness hop radius of a node the
// mutation touched.
func (g *Graph) WithinHops(sources []NodeID, hops int, seen []bool, out []NodeID) []NodeID {
	g.validate(sources...)
	g.mu.RLock()
	start := len(out)
	for _, s := range sources {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	frontierStart := start
	for d := 0; d < hops; d++ {
		frontierEnd := len(out)
		if frontierStart == frontierEnd {
			break
		}
		for idx := frontierStart; idx < frontierEnd; idx++ {
			for _, e := range g.adj[out[idx]] {
				if !seen[e.to] {
					seen[e.to] = true
					out = append(out, e.to)
				}
			}
		}
		frontierStart = frontierEnd
	}
	g.mu.RUnlock()
	for _, v := range out[start:] {
		seen[v] = false
	}
	return out
}

// validate panics on out-of-range IDs; topology construction errors are
// programming errors in experiment setup, not runtime conditions.
func (g *Graph) validate(ids ...NodeID) {
	for _, id := range ids {
		if id < 0 || int(id) >= g.n {
			panic(fmt.Sprintf("socialgraph: node %d out of range [0,%d)", id, g.n))
		}
	}
}

// AddRelationship adds one typed relationship between i and j, creating the
// friendship edge if absent. Adding multiple relationships to the same pair
// raises m(i,j), the relationship multiplicity of Equation 2.
func (g *Graph) AddRelationship(i, j NodeID, r Relationship) {
	g.validate(i, j)
	if i == j {
		panic("socialgraph: self relationship")
	}
	g.mu.Lock()
	g.addHalf(i, j, r)
	g.addHalf(j, i, r)
	g.mu.Unlock()
	g.bumpTouched(i, j)
}

// addHalf appends r to i's half-edge toward j, inserting the half-edge at
// its sorted position if it is new.
func (g *Graph) addHalf(i, j NodeID, r Relationship) {
	k, ok := search(g.adj[i], j)
	if !ok {
		g.adj[i] = slices.Insert(g.adj[i], k, halfEdge{to: j})
	}
	g.adj[i][k].rels = append(g.adj[i][k].rels, r)
}

// search returns the position of j in the sorted half-edge list, or the
// position it would be inserted at, and whether it is present.
func search(list []halfEdge, j NodeID) (int, bool) {
	lo, hi := 0, len(list)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if list[mid].to < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(list) && list[lo].to == j
}

// edgeLocked returns i's half-edge toward j, or nil when they are not
// adjacent; callers hold at least the read lock.
func (g *Graph) edgeLocked(i, j NodeID) *halfEdge {
	if k, ok := search(g.adj[i], j); ok {
		return &g.adj[i][k]
	}
	return nil
}

// Adjacent reports whether i and j share a friendship edge.
func (g *Graph) Adjacent(i, j NodeID) bool {
	g.validate(i, j)
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.adjacentLocked(i, j)
}

func (g *Graph) adjacentLocked(i, j NodeID) bool {
	_, ok := search(g.adj[i], j)
	return ok
}

// RelationshipCount returns m(i,j), the number of relationships between
// adjacent nodes (0 when not adjacent).
func (g *Graph) RelationshipCount(i, j NodeID) int {
	g.validate(i, j)
	g.mu.RLock()
	defer g.mu.RUnlock()
	if e := g.edgeLocked(i, j); e != nil {
		return len(e.rels)
	}
	return 0
}

// Relationships returns a copy of the relationship list between i and j.
func (g *Graph) Relationships(i, j NodeID) []Relationship {
	g.validate(i, j)
	g.mu.RLock()
	defer g.mu.RUnlock()
	e := g.edgeLocked(i, j)
	if e == nil {
		return nil
	}
	return append([]Relationship(nil), e.rels...)
}

// relationshipStrengthLocked evaluates the relationship term of the
// closeness formula; callers hold at least the read lock. With
// weighted=false it is the plain multiplicity m(i,j) (Equation 2). With
// weighted=true it is Σ_l λ^(l−1)·w_dl over the relationship list sorted by
// descending weight (Equation 10), which damps the marginal value of piling
// on extra weak relationships — the falsification counterattack of
// Section 4.4.
func (g *Graph) relationshipStrengthLocked(i, j NodeID, weighted bool, lambda float64) float64 {
	e := g.edgeLocked(i, j)
	if e == nil {
		return 0
	}
	if !weighted {
		return float64(len(e.rels))
	}
	ws := make([]float64, len(e.rels))
	for k, r := range e.rels {
		ws[k] = r.weight()
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(ws)))
	sum, scale := 0.0, 1.0
	for _, w := range ws {
		sum += scale * w
		scale *= lambda
	}
	return sum
}

// Friends returns the neighbor set S_i of node i in ascending order.
func (g *Graph) Friends(i NodeID) []NodeID {
	g.validate(i)
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.friendsLocked(i, nil)
}

// friendsLocked appends i's neighbors in ascending order to buf (which may
// be nil) and returns the extended slice; callers hold the read lock.
func (g *Graph) friendsLocked(i NodeID, buf []NodeID) []NodeID {
	for _, e := range g.adj[i] {
		buf = append(buf, e.to)
	}
	return buf
}

// Degree returns |S_i|, the number of friends of i.
func (g *Graph) Degree(i NodeID) int {
	g.validate(i)
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.adj[i])
}

// CommonFriends returns S_i ∩ S_j in ascending order.
func (g *Graph) CommonFriends(i, j NodeID) []NodeID {
	g.validate(i, j)
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.commonFriendsLocked(i, j, nil)
}

// commonFriendsLocked appends S_i ∩ S_j in ascending order to buf, merging
// the two sorted adjacency lists; callers hold the read lock.
func (g *Graph) commonFriendsLocked(i, j NodeID, buf []NodeID) []NodeID {
	a, b := g.adj[i], g.adj[j]
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0].to < b[0].to:
			a = a[1:]
		case a[0].to > b[0].to:
			b = b[1:]
		default:
			buf = append(buf, a[0].to)
			a, b = a[1:], b[1:]
		}
	}
	return buf
}

// NoPath is returned by Distance when no path exists within the cutoff.
const NoPath = -1

// Distance returns the hop count of the shortest friendship path between i
// and j via breadth-first search, or NoPath if none exists within maxHops
// (maxHops <= 0 means unbounded). Distance(i,i) is 0.
func (g *Graph) Distance(i, j NodeID, maxHops int) int {
	path := g.ShortestPath(i, j, maxHops)
	if path == nil {
		return NoPath
	}
	return len(path) - 1
}

// ShortestPath returns one shortest friendship path from i to j inclusive of
// both endpoints, or nil if none exists within maxHops (<= 0 for unbounded).
func (g *Graph) ShortestPath(i, j NodeID, maxHops int) []NodeID {
	g.validate(i, j)
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.shortestPathLocked(i, j, maxHops)
}

func (g *Graph) shortestPathLocked(i, j NodeID, maxHops int) []NodeID {
	if i == j {
		return []NodeID{i}
	}
	prev := make(map[NodeID]NodeID, 64)
	prev[i] = i
	frontier := []NodeID{i}
	depth := 0
	for len(frontier) > 0 {
		if maxHops > 0 && depth >= maxHops {
			return nil
		}
		depth++
		var next []NodeID
		for _, u := range frontier {
			// Expand neighbors in ID order (the adjacency order) so the
			// returned path, and any closeness derived from it, is
			// deterministic.
			for _, e := range g.adj[u] {
				v := e.to
				if _, seen := prev[v]; seen {
					continue
				}
				prev[v] = u
				if v == j {
					// Reconstruct the path back to i.
					path := []NodeID{j}
					for cur := j; cur != i; {
						cur = prev[cur]
						path = append(path, cur)
					}
					for a, b := 0, len(path)-1; a < b; a, b = a+1, b-1 {
						path[a], path[b] = path[b], path[a]
					}
					return path
				}
				next = append(next, v)
			}
		}
		frontier = next
	}
	return nil
}

// RecordInteraction adds weight w to the directed interaction frequency
// f(i,j) — one resource request or rating event from i to j. Safe for
// concurrent use across distinct and identical sources.
func (g *Graph) RecordInteraction(i, j NodeID, w float64) {
	g.validate(i, j)
	row := &g.interactions[i]
	row.mu.Lock()
	if row.counts == nil {
		row.counts = make(map[NodeID]float64)
	}
	row.counts[j] += w
	row.mu.Unlock()
	g.bumpTouched(i) // only i's outgoing row — f(i,·) — changed
}

// InteractionFrequency returns f(i,j), the accumulated directed interaction
// weight from i to j.
func (g *Graph) InteractionFrequency(i, j NodeID) float64 {
	g.validate(i, j)
	row := &g.interactions[i]
	row.mu.Lock()
	defer row.mu.Unlock()
	return row.counts[j]
}

// TotalInteractionsFrom returns Σ_k f(i,k), the denominator of Equation 2.
func (g *Graph) TotalInteractionsFrom(i NodeID) float64 {
	g.validate(i)
	row := &g.interactions[i]
	row.mu.Lock()
	defer row.mu.Unlock()
	sum := 0.0
	for _, v := range row.counts {
		sum += v
	}
	return sum
}

// RemoveNodeEdges deletes every friendship edge incident to the node and
// clears its outgoing interaction history — the graph-side effect of a peer
// leaving the network (its ID slot can then be reused by a newcomer).
// Incoming interaction records from other nodes are preserved: other peers
// remember having interacted with the departed identity.
func (g *Graph) RemoveNodeEdges(i NodeID) {
	g.validate(i)
	g.mu.Lock()
	// Every former neighbor's adjacency set changes too: record them all so
	// affected-set queries against the post-removal topology (where the
	// removed edges no longer exist to walk) still reach every node whose
	// closeness depended on one of them.
	touched := make([]NodeID, 0, len(g.adj[i])+1)
	touched = append(touched, i)
	for _, e := range g.adj[i] {
		j := e.to
		if k, ok := search(g.adj[j], i); ok {
			g.adj[j] = slices.Delete(g.adj[j], k, k+1)
		}
		touched = append(touched, j)
	}
	g.adj[i] = nil
	g.mu.Unlock()
	row := &g.interactions[i]
	row.mu.Lock()
	row.counts = nil
	row.mu.Unlock()
	g.bumpTouched(touched...)
}

// EdgeState is one undirected friendship edge (I < J) with its relationship
// list, as captured by ExportState.
type EdgeState struct {
	I, J NodeID
	Rels []Relationship
}

// State is the serializable form of a Graph: the full topology plus the
// directed interaction table. Epochs and touch logs are deliberately absent —
// they are invalidation bookkeeping for in-memory caches, which start cold
// after a restore anyway.
type State struct {
	NumNodes     int
	Edges        []EdgeState // sorted by (I, J), I < J
	Interactions []map[NodeID]float64
}

// Validate reports whether the state fits a numNodes-node graph: the node
// count, every edge between two distinct nodes in [0, numNodes), and one
// interaction row per node whose keys are in range. A state read from a file
// must pass it before ImportState.
func (st State) Validate(numNodes int) error {
	if st.NumNodes != numNodes || len(st.Interactions) != numNodes {
		return fmt.Errorf("socialgraph: state for %d nodes with %d interaction rows, want %d", st.NumNodes, len(st.Interactions), numNodes)
	}
	inRange := func(v NodeID) bool { return v >= 0 && int(v) < numNodes }
	for _, e := range st.Edges {
		if !inRange(e.I) || !inRange(e.J) || e.I == e.J {
			return fmt.Errorf("socialgraph: state edge %d-%d is a self edge or outside [0, %d)", e.I, e.J, numNodes)
		}
	}
	for i, row := range st.Interactions {
		for j := range row {
			if !inRange(j) {
				return fmt.Errorf("socialgraph: state interaction %d->%d outside [0, %d)", i, j, numNodes)
			}
		}
	}
	return nil
}

// ExportState deep-copies the graph's persistent content in canonical
// order: walking the sorted adjacency lists in node order emits the edges
// in (I, J) order.
func (g *Graph) ExportState() State {
	st := State{NumNodes: g.n, Interactions: make([]map[NodeID]float64, g.n)}
	g.mu.RLock()
	for i := range g.adj {
		for _, e := range g.adj[i] {
			if NodeID(i) < e.to {
				st.Edges = append(st.Edges, EdgeState{I: NodeID(i), J: e.to, Rels: append([]Relationship(nil), e.rels...)})
			}
		}
	}
	g.mu.RUnlock()
	for i := range g.interactions {
		row := &g.interactions[i]
		row.mu.Lock()
		if len(row.counts) > 0 {
			m := make(map[NodeID]float64, len(row.counts))
			for k, v := range row.counts {
				m[k] = v
			}
			st.Interactions[i] = m
		}
		row.mu.Unlock()
	}
	return st
}

// ImportState replaces the graph's topology and interaction table with a
// previously exported state, which must pass Validate for the graph's node
// count, and signals full invalidation to derived-state consumers. Every
// relationship list and interaction count afterwards is bit-identical to the
// exporting instance.
func (g *Graph) ImportState(st State) {
	if err := st.Validate(g.n); err != nil {
		panic(err)
	}
	g.mu.Lock()
	g.adj = make([][]halfEdge, g.n)
	for _, es := range st.Edges {
		for _, r := range es.Rels {
			g.addHalf(es.I, es.J, r)
			g.addHalf(es.J, es.I, r)
		}
	}
	g.mu.Unlock()
	for i := range g.interactions {
		row := &g.interactions[i]
		row.mu.Lock()
		row.counts = nil
		if m := st.Interactions[i]; len(m) > 0 {
			row.counts = make(map[NodeID]float64, len(m))
			for k, v := range m {
				row.counts[k] = v
			}
		}
		row.mu.Unlock()
	}
	g.bumpAll()
}

// ResetInteractions clears the interaction table, used between trace epochs.
func (g *Graph) ResetInteractions() {
	for i := range g.interactions {
		row := &g.interactions[i]
		row.mu.Lock()
		row.counts = nil
		row.mu.Unlock()
	}
	g.bumpAll() // every outgoing row changed: global invalidation
}
