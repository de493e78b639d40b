package socialgraph

// ClosenessParams configures the Ωc computation.
type ClosenessParams struct {
	// Weighted selects the falsification-resistant relationship term of
	// Equation 10 (Σ λ^(l−1)·w_dl) instead of the raw multiplicity m(i,j)
	// of Equation 2.
	Weighted bool
	// Lambda is the relationship scaling weight λ ∈ [0.5,1] of Equation 10.
	// Ignored unless Weighted is set.
	Lambda float64
	// MaxPathHops bounds the BFS used for the min-along-path fallback of
	// Equation 4. The paper observes users transact within ~3 hops; the
	// evaluation never needs paths longer than 4. Zero means 6.
	MaxPathHops int
}

// DefaultClosenessParams returns the configuration used by the paper's
// evaluation: unweighted relationships and a 6-hop path cutoff.
func DefaultClosenessParams() ClosenessParams {
	return ClosenessParams{Weighted: false, Lambda: 0.75, MaxPathHops: 6}
}

func (p ClosenessParams) maxHops() int {
	if p.MaxPathHops <= 0 {
		return 6
	}
	return p.MaxPathHops
}

// MaxHops returns the effective BFS hop cutoff (MaxPathHops with the zero
// value defaulted) — the dependency radius of one closeness computation,
// which invalidation layers combine with Graph.WithinHops.
func (p ClosenessParams) MaxHops() int { return p.maxHops() }

// Closeness computes the social closeness Ωc(i,j) per Equation 4 (or
// Equation 10 when p.Weighted):
//
//   - adjacent nodes: relationship strength × f(i,j) / Σ_k f(i,k). When i
//     has recorded no interactions at all, the frequency ratio degenerates;
//     we then fall back to a uniform-frequency assumption 1/|S_i| so that a
//     fresh network still has meaningful closeness.
//   - non-adjacent with common friends k: Σ_k (Ωc(i,k)+Ωc(k,j))/2.
//   - non-adjacent without common friends: the minimum adjacent closeness
//     along one shortest friendship path between i and j.
//   - unreachable (or i == j): 0 — a node has no rating relationship with
//     itself, and strangers with no social path have no measurable
//     closeness.
func (g *Graph) Closeness(i, j NodeID, p ClosenessParams) float64 {
	g.validate(i, j)
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.closenessLocked(i, j, p)
}

func (g *Graph) closenessLocked(i, j NodeID, p ClosenessParams) float64 {
	if i == j {
		return 0
	}
	if g.adjacentLocked(i, j) {
		return g.adjacentClosenessLocked(i, j, p)
	}
	common := g.commonFriendsLocked(i, j, nil)
	if len(common) > 0 {
		sum := 0.0
		for _, k := range common {
			sum += (g.adjacentClosenessLocked(i, k, p) + g.adjacentClosenessLocked(k, j, p)) / 2
		}
		return sum
	}
	path := g.shortestPathLocked(i, j, p.maxHops())
	if path == nil {
		return 0
	}
	min := -1.0
	for h := 0; h+1 < len(path); h++ {
		c := g.adjacentClosenessLocked(path[h], path[h+1], p)
		if min < 0 || c < min {
			min = c
		}
	}
	if min < 0 {
		return 0
	}
	return min
}

// adjacentClosenessLocked evaluates the adjacent case of Equation 2 /
// Equation 10; callers hold at least the topology read lock. Interaction
// reads go through the striped row locks, not g.mu.
func (g *Graph) adjacentClosenessLocked(i, j NodeID, p ClosenessParams) float64 {
	strength := g.relationshipStrengthLocked(i, j, p.Weighted, p.Lambda)
	if strength == 0 {
		return 0
	}
	total := g.TotalInteractionsFrom(i)
	if total == 0 {
		// No interactions recorded yet: assume uniform frequency over the
		// friend set so closeness reduces to strength/|S_i|.
		deg := len(g.adj[i])
		if deg == 0 {
			return 0
		}
		return strength / float64(deg)
	}
	return strength * g.InteractionFrequency(i, j) / total
}

// ClosenessFrom computes Ωc(i, j) for every ratee j in one batched pass.
// The results are element-wise bit-identical to calling Closeness(i, j, p)
// per pair on a quiescent graph, but all of rater i's pairs share one BFS
// tree, memoized adjacent closenesses and memoized interaction totals. The
// tree is built only when some ratee needs the path branch, and only to
// depth MaxHops−1: a ratee one hop further is resolved from its own
// adjacency list. The cost is therefore proportional to the nodes within
// MaxHops−1 hops of i plus O(deg) per ratee, and the per-call scratch comes
// from a pool, so nothing allocated per call grows with NumNodes.
func (g *Graph) ClosenessFrom(i NodeID, ratees []NodeID, p ClosenessParams) []float64 {
	g.validate(i)
	g.validate(ratees...)
	out := make([]float64, len(ratees))
	g.mu.RLock()
	defer g.mu.RUnlock()
	b := g.newClosenessBatch(i, p)
	for idx, j := range ratees {
		out[idx] = b.closeness(j)
	}
	b.release()
	return out
}

// batchScratch is the pooled working state of one closeness batch. Between
// uses every pos slot is −1 and the queue and memo maps are empty, so a
// batch costs what it visits rather than NumNodes. Queue indexes are int32 (New
// caps NumNodes accordingly) to halve the per-node array.
type batchScratch struct {
	pos    []int32  // per node: index in queue, −1 when not in the tree
	queue  []NodeID // BFS visit order, level by level
	parent []int32  // parent[q] is the queue index of queue[q]'s BFS parent

	fromI  map[NodeID]float64 // memoized adjacent closeness Ωc(i,k) for friends k
	totals map[NodeID]float64 // memoized TotalInteractionsFrom per source node
	cfBuf  []NodeID           // common-friend scratch
}

func newBatchScratch(n int) *batchScratch {
	s := &batchScratch{
		pos:    make([]int32, n),
		fromI:  make(map[NodeID]float64),
		totals: make(map[NodeID]float64),
	}
	for x := range s.pos {
		s.pos[x] = -1
	}
	return s
}

// closenessBatch is the shared state of one ClosenessFrom pass: every quantity that depends only on the source node i is computed
// once and memoized across ratees. Callers hold the topology read lock for
// the batch's whole lifetime.
type closenessBatch struct {
	g *Graph
	i NodeID
	p ClosenessParams
	s *batchScratch

	bfsDone bool
	deepest int32 // queue[deepest:] is the tree's deepest level, depth MaxHops−1
}

func (g *Graph) newClosenessBatch(i NodeID, p ClosenessParams) closenessBatch {
	return closenessBatch{g: g, i: i, p: p, s: g.scratch.Get().(*batchScratch)}
}

// release restores the scratch to its between-uses state, touching only
// the slots the batch visited, and returns it to the pool.
func (b *closenessBatch) release() {
	s := b.s
	for _, v := range s.queue {
		s.pos[v] = -1
	}
	s.queue, s.parent = s.queue[:0], s.parent[:0]
	clear(s.fromI)
	clear(s.totals)
	b.g.scratch.Put(s)
}

// closeness mirrors Graph.closenessLocked case by case; each branch
// evaluates the exact expressions of the per-pair path in the same order so
// the float results are bit-identical.
func (b *closenessBatch) closeness(j NodeID) float64 {
	g, i, s := b.g, b.i, b.s
	if i == j {
		return 0
	}
	if g.adjacentLocked(i, j) {
		return b.adjFromI(j)
	}
	s.cfBuf = g.commonFriendsLocked(i, j, s.cfBuf[:0])
	if len(s.cfBuf) > 0 {
		sum := 0.0
		for _, k := range s.cfBuf {
			sum += (b.adjFromI(k) + b.adjClose(k, j)) / 2
		}
		return sum
	}
	if !b.bfsDone {
		b.buildBFS()
	}
	// The per-pair BFS assigns the same parents (same ID-order expansion),
	// so the tree path is the same path and its minimum the same minimum.
	// The minimum does not depend on the order the hops are visited in.
	min := -1.0
	q := s.pos[j]
	if q < 0 {
		// j is not within MaxHops−1 hops. The full BFS would discover it
		// while expanding the deepest level, from the first node in queue
		// order adjacent to it: its earliest-queued neighbour there.
		for _, e := range g.adj[j] {
			if at := s.pos[e.to]; at >= b.deepest && (q < 0 || at < q) {
				q = at
			}
		}
		if q < 0 {
			return 0 // more than MaxHops hops away, or unreachable
		}
		min = b.adjClose(s.queue[q], j)
	}
	for q != 0 { // queue[0] is i
		par := s.parent[q]
		c := b.adjClose(s.queue[par], s.queue[q])
		if min < 0 || c < min {
			min = c
		}
		q = par
	}
	if min < 0 {
		return 0
	}
	return min
}

// adjFromI memoizes the adjacent closeness from the batch source i.
func (b *closenessBatch) adjFromI(k NodeID) float64 {
	if v, ok := b.s.fromI[k]; ok {
		return v
	}
	v := b.adjClose(b.i, k)
	b.s.fromI[k] = v
	return v
}

// adjClose is adjacentClosenessLocked with the per-source interaction total
// memoized for the batch.
func (b *closenessBatch) adjClose(u, v NodeID) float64 {
	g, p := b.g, b.p
	strength := g.relationshipStrengthLocked(u, v, p.Weighted, p.Lambda)
	if strength == 0 {
		return 0
	}
	total, ok := b.s.totals[u]
	if !ok {
		total = g.TotalInteractionsFrom(u)
		b.s.totals[u] = total
	}
	if total == 0 {
		deg := len(g.adj[u])
		if deg == 0 {
			return 0
		}
		return strength / float64(deg)
	}
	return strength * g.InteractionFrequency(u, v) / total
}

// buildBFS runs a breadth-first pass from i to depth MaxHops−1, expanding
// neighbors in ID order — the same discovery order as the per-pair
// shortestPathLocked, so every node in the tree gets the same parent.
func (b *closenessBatch) buildBFS() {
	g, s := b.g, b.s
	s.pos[b.i] = 0
	s.queue = append(s.queue, b.i)
	s.parent = append(s.parent, 0)
	start, end := 0, 1 // the level being expanded is queue[start:end]
	for depth := 1; depth < b.p.maxHops() && start < end; depth++ {
		for q := start; q < end; q++ {
			for _, e := range g.adj[s.queue[q]] {
				if s.pos[e.to] >= 0 {
					continue
				}
				s.pos[e.to] = int32(len(s.queue))
				s.queue = append(s.queue, e.to)
				s.parent = append(s.parent, int32(q))
			}
		}
		start, end = end, len(s.queue)
	}
	b.deepest = int32(start)
	b.bfsDone = true
}
