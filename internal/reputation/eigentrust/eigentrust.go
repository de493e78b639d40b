// Package eigentrust implements the EigenTrust reputation algorithm
// (Kamvar, Schlosser, Garcia-Molina, WWW 2003), one of the two baseline
// systems the paper evaluates SocialTrust against.
//
// Each peer i accumulates a local trust value s_ij = Σ ratings it issued
// about j. Local values are clamped non-negative and row-normalized into
// c_ij; the global trust vector is the stationary point of
//
//	t ← (1−a)·Cᵀt + a·p
//
// where p is the pretrusted-peer distribution and a the pretrust weight
// (the paper's experiments use a = 0.5). Rows with no positive local trust
// fall back to p, exactly as in the original algorithm. The power iteration
// parallelizes the Cᵀt product across row blocks.
package eigentrust

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"socialtrust/internal/obs"
	"socialtrust/internal/obs/span"
	"socialtrust/internal/rating"
)

// Convergence metrics: eigentrust_iterations / eigentrust_residual describe
// the most recent power iteration; the *_total counters accumulate across
// the run so iteration cost per update interval is visible from a dump.
var (
	mIterations      = obs.G("eigentrust_iterations")
	mResidual        = obs.G("eigentrust_residual")
	mIterationsTotal = obs.C("eigentrust_iterations_total")
	mUpdatesTotal    = obs.C("eigentrust_updates_total")
	mMaxIterHits     = obs.C("eigentrust_maxiter_hits_total")
	mUpdateLat       = obs.H("eigentrust_update_seconds")
	mCSRRebuilds     = obs.C("eigentrust_csr_rebuilds_total")
	mConverged       = obs.G("eigentrust_converged")
	mMatvecWorkers   = obs.G("eigentrust_matvec_workers")
	mWarmSkips       = obs.C("eigentrust_warm_start_skips_total")
)

func init() {
	obs.Help("eigentrust_iterations", "Iterations of the most recent power iteration.")
	obs.Help("eigentrust_residual", "Final L1 residual of the most recent power iteration.")
	obs.Help("eigentrust_iterations_total", "Power-iteration steps accumulated across the run.")
	obs.Help("eigentrust_updates_total", "Engine updates (one per reputation interval).")
	obs.Help("eigentrust_maxiter_hits_total", "Power iterations stopped by the MaxIter cap before converging.")
	obs.Help("eigentrust_update_seconds", "Wall time of one engine update (fold plus power iteration).")
	obs.Help("eigentrust_csr_rebuilds_total", "Full CSR trust-matrix rebuilds (vs in-place refreshes).")
	obs.Help("eigentrust_converged", "1 when the most recent update converged (or was skipped as already converged), 0 on a MaxIter hit.")
	obs.Help("eigentrust_matvec_workers", "Worker goroutines used by the parallel mat-vec.")
	obs.Help("eigentrust_warm_start_skips_total", "Updates that skipped the power iteration entirely: unchanged matrix, previously converged vector.")
}

// Config parameterizes an EigenTrust engine.
type Config struct {
	NumNodes int
	// Pretrusted lists the pretrusted peer IDs (distribution p is uniform
	// over them). Empty means p is uniform over all peers.
	Pretrusted []int
	// PretrustWeight is a ∈ [0,1); the paper sets 0.5. Defaults to 0.5
	// when zero.
	PretrustWeight float64
	// Epsilon is the L1 convergence threshold of the power iteration
	// (default 1e-10). If Epsilon is set unattainably small (or negative),
	// the iteration silently runs to the MaxIter cap every update; check
	// Stats().Converged to detect this.
	Epsilon float64
	// MaxIter bounds the power iteration (default 200). When the cap is hit
	// the engine keeps the last iterate — a valid but unconverged vector —
	// and Stats() reports Converged == false.
	MaxIter int
	// Workers sets the parallelism of the matrix–vector product; 0 means
	// GOMAXPROCS, 1 forces the serial path.
	Workers int
	// FullRecompute forces a from-scratch CSR rebuild on every
	// matrix-changing update instead of the incremental shape/value
	// refreshes. It is the reference mode the incremental maintenance is
	// pinned bit-identical against; production deployments leave it false.
	// The quiet-interval skip (unchanged matrix + converged vector) is a
	// pipeline semantic and applies in both modes.
	FullRecompute bool
}

func (c Config) withDefaults() Config {
	if c.PretrustWeight == 0 {
		c.PretrustWeight = 0.5
	}
	if c.Epsilon == 0 {
		c.Epsilon = 1e-10
	}
	if c.MaxIter == 0 {
		c.MaxIter = 200
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Engine is an EigenTrust instance. Not safe for concurrent mutation.
type Engine struct {
	cfg Config
	p   []float64 // pretrust distribution
	// rows[i] holds rater i's local trust sums s_ij, one entry per peer j it
	// has rated, ascending by j. Sums of any sign stay; the CSR reads the
	// positive ones.
	rows [][]localTrust
	t    []float64
	next []float64 // scratch iterate reused across updates

	csr csrState

	stats Stats
}

// csrState is the incrementally maintained compressed-sparse-row form of
// the row-normalized local-trust matrix. The structural arrays (rowPtr /
// colIdx / the forward→transposed permutation) are rebuilt — into reusable
// scratch buffers — only when the outlink set changes shape; value-only
// changes refresh the val arrays in place. All walks run raters ascending
// with each row's ratees ascending, so float summation order (and therefore
// the trust vector, bitwise) is identical to a from-scratch rebuild.
type csrState struct {
	shapeDirty bool // an outlink appeared or vanished: rebuild structure
	valsDirty  bool // only trust values changed: refresh values in place

	// rowDirty / dirtyRows track which forward rows hold changed values, so
	// a value-only refresh touches just those rows instead of all n. Rows
	// are normalized independently, so a dirty-row refresh is bit-identical
	// to the full pass. Cleared by every rebuild/refresh.
	rowDirty  []bool
	dirtyRows []int

	// Forward (rater-major) structure: fCol[fRowPtr[i]:fRowPtr[i+1]] lists
	// rater i's ratees ascending; fVal holds the raw positive sums.
	fRowPtr []int32
	fCol    []int32
	fVal    []float64
	perm    []int32 // forward slot -> transposed slot

	// Transposed (ratee-major) structure consumed by the power iteration:
	// tCol[tRowPtr[j]:tRowPtr[j+1]] lists j's raters ascending, tVal the
	// normalized trust c_ij.
	tRowPtr []int32
	tCol    []int32
	tVal    []float64

	rowTotal []float64 // per-rater normalization totals (0 = dangling row)
	cnt      []int32   // rebuild scratch: per-ratee entry counts / cursors

	// idle lists the maximal runs of idle nodes — no in-link, no positive
	// out-link, the same pretrust across the run — ascending, none crossing
	// an etBlock boundary; idle[blockIdle[b]:blockIdle[b+1]] are block b's.
	idle      []idleRun
	blockIdle []int32

	// Per-block partials of one power-iteration step, tree-reduced after
	// it: the L1 residual and the dangling mass of the new iterate.
	resid []float64
	dang  []float64
}

// idleRun is the node range [lo, hi) of one run of idle nodes.
type idleRun struct{ lo, hi int32 }

// localTrust is one entry of a rater's row: the sum of its ratings of ratee.
type localTrust struct {
	ratee int
	sum   float64
}

// findRatee locates ratee in a row by binary search.
func findRatee(row []localTrust, ratee int) (int, bool) {
	return slices.BinarySearchFunc(row, ratee, func(lt localTrust, j int) int { return cmp.Compare(lt.ratee, j) })
}

// grown returns s resized to n elements, reusing its backing array when the
// capacity suffices.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Stats describes the engine's most recent power iteration.
type Stats struct {
	// Iterations the last powerIterate ran (0 until the first Update).
	Iterations int
	// Residual is the final L1 distance between the last two iterates.
	Residual float64
	// Converged reports whether Residual dropped below Epsilon before the
	// MaxIter cap. False after an update means the reputations are the
	// MaxIter-th iterate, not the fixpoint — typically an Epsilon
	// misconfiguration.
	Converged bool
	// Updates counts the recomputations (Update/ResetNode calls) so far.
	Updates int
	// Skipped reports that the most recent update ran zero iterations
	// because the trust matrix was unchanged and the previous vector had
	// converged — the fixpoint of an identical system stands.
	Skipped bool
}

// Stats returns convergence statistics for the most recent recomputation.
func (e *Engine) Stats() Stats { return e.stats }

// New creates an EigenTrust engine. It panics on invalid configuration
// (experiment-construction errors).
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	if cfg.NumNodes <= 0 {
		panic("eigentrust: NumNodes must be positive")
	}
	if cfg.PretrustWeight < 0 || cfg.PretrustWeight >= 1 {
		panic("eigentrust: PretrustWeight must be in [0,1)")
	}
	p := make([]float64, cfg.NumNodes)
	if len(cfg.Pretrusted) == 0 {
		for i := range p {
			p[i] = 1 / float64(cfg.NumNodes)
		}
	} else {
		for _, id := range cfg.Pretrusted {
			if id < 0 || id >= cfg.NumNodes {
				panic(fmt.Sprintf("eigentrust: pretrusted peer %d out of range", id))
			}
			p[id] = 1 / float64(len(cfg.Pretrusted))
		}
	}
	e := &Engine{cfg: cfg, p: p}
	e.Reset()
	return e
}

// Name implements reputation.Engine.
func (e *Engine) Name() string { return "EigenTrust" }

// Reset clears all local trust and restarts the global vector at p.
func (e *Engine) Reset() {
	e.rows = make([][]localTrust, e.cfg.NumNodes)
	e.t = append([]float64(nil), e.p...)
	e.next = make([]float64, e.cfg.NumNodes)
	e.csr.shapeDirty = true
	e.stats = Stats{}
}

// ResetNode implements reputation.Engine: all local trust issued by or
// about the node is forgotten and the global vector recomputed.
func (e *Engine) ResetNode(node int) {
	if node < 0 || node >= e.cfg.NumNodes {
		panic(fmt.Sprintf("eigentrust: node %d out of range", node))
	}
	e.forget(node)
	e.powerIterate()
}

// forget drops the node's row and its entry in every other row. Losing a
// positive sum removes an outlink, so it marks the CSR shape dirty.
func (e *Engine) forget(node int) {
	for _, lt := range e.rows[node] {
		if lt.sum > 0 {
			e.csr.shapeDirty = true
		}
	}
	e.rows[node] = nil
	for i, row := range e.rows {
		if k, found := findRatee(row, node); found {
			if row[k].sum > 0 {
				e.csr.shapeDirty = true
			}
			e.rows[i] = slices.Delete(row, k, k+1)
		}
	}
}

// Update folds the interval's ratings into local trust and re-runs the
// power iteration.
func (e *Engine) Update(snap rating.Snapshot) {
	fsp := span.Ambient("eigentrust.fold", span.PhaseIterate).SetInt("ratings", int64(len(snap.Ratings)))
	e.fold(snap.Ratings)
	fsp.End()
	e.powerIterate()
}

// fold adds the ratings into the rows one run of same-pair ratings at a time:
// snapshot order keeps a pair's ratings next to each other, so a run costs
// one lookup. Each sum accumulates in input order, so it is the same float
// however the ratings are grouped.
func (e *Engine) fold(ratings []rating.Rating) {
	for i := 0; i < len(ratings); {
		r := ratings[i]
		row := e.rows[r.Rater]
		k, found := findRatee(row, r.Ratee)
		if !found {
			row = slices.Insert(row, k, localTrust{ratee: r.Ratee})
			e.rows[r.Rater] = row
		}
		sum := row[k].sum
		for ; i < len(ratings) && ratings[i].Rater == r.Rater && ratings[i].Ratee == r.Ratee; i++ {
			old := sum
			sum += ratings[i].Value
			// Every step marks the CSR as a lone rating would: the shape when
			// an outlink appears or vanishes (so a sum that dips non-positive
			// and comes back still rebuilds), the row's values when a positive
			// sum moves, nothing when the sum stands — the quiet-interval
			// skip's signal.
			switch oldPos, nowPos := old > 0, sum > 0; {
			case old == sum:
			case oldPos != nowPos:
				e.csr.shapeDirty = true
			case nowPos:
				e.csr.valsDirty = true
				e.markRowDirty(r.Rater)
			}
		}
		row[k].sum = sum
	}
}

// markRowDirty records rater row i for the next value-only refresh.
func (e *Engine) markRowDirty(i int) {
	c := &e.csr
	if c.rowDirty == nil {
		c.rowDirty = make([]bool, e.cfg.NumNodes)
	}
	if !c.rowDirty[i] {
		c.rowDirty[i] = true
		c.dirtyRows = append(c.dirtyRows, i)
	}
}

// clearDirtyRows empties the dirty-row set after a rebuild or refresh.
func (e *Engine) clearDirtyRows() {
	c := &e.csr
	for _, i := range c.dirtyRows {
		c.rowDirty[i] = false
	}
	c.dirtyRows = c.dirtyRows[:0]
}

// rebuildCSR reconstructs the sparse structure from the rows' positive
// sums into the reusable scratch buffers: forward rows first (raters
// ascending, ratees ascending within a row, as the rows keep them), then a
// counting pass lays out the transposed rows and the forward→transposed
// permutation. Entry order in every transposed row is ascending source ID —
// exactly the order the from-scratch [][]inEntry build produced — so the
// power iteration's float summation order is unchanged.
func (e *Engine) rebuildCSR() {
	c := &e.csr
	n := e.cfg.NumNodes
	c.fRowPtr = grown(c.fRowPtr, n+1)
	c.fCol = c.fCol[:0]
	for i, row := range e.rows {
		c.fRowPtr[i] = int32(len(c.fCol))
		for _, lt := range row {
			if lt.sum > 0 {
				c.fCol = append(c.fCol, int32(lt.ratee))
			}
		}
	}
	slot, nnz := int32(len(c.fCol)), len(c.fCol)
	c.fRowPtr[n] = slot
	c.tRowPtr = grown(c.tRowPtr, n+1)
	c.tCol = grown(c.tCol, nnz)
	c.perm = grown(c.perm, nnz)
	c.fVal = grown(c.fVal, nnz)
	c.tVal = grown(c.tVal, nnz)
	c.rowTotal = grown(c.rowTotal, n)
	c.cnt = grown(c.cnt, n)
	c.blockIdle = grown(c.blockIdle, (n+etBlock-1)/etBlock+1)
	c.idle = c.idle[:0]

	for j := 0; j < n; j++ {
		c.cnt[j] = 0
	}
	for s := int32(0); s < slot; s++ {
		c.cnt[c.fCol[s]]++
	}
	run := int32(0)
	for j := 0; j < n; j++ {
		if j%etBlock == 0 {
			c.blockIdle[j/etBlock] = int32(len(c.idle))
		}
		// In-degree zero and an empty forward row make j idle; it extends
		// the run ending at j unless j starts a block or its pretrust
		// differs.
		if c.cnt[j] == 0 && c.fRowPtr[j] == c.fRowPtr[j+1] {
			if k := len(c.idle) - 1; k >= 0 && c.idle[k].hi == int32(j) && j%etBlock != 0 && e.p[j] == e.p[j-1] {
				c.idle[k].hi++
			} else {
				c.idle = append(c.idle, idleRun{int32(j), int32(j + 1)})
			}
		}
		c.tRowPtr[j] = run
		run += c.cnt[j]
		c.cnt[j] = c.tRowPtr[j] // becomes the fill cursor below
	}
	c.tRowPtr[n] = run
	c.blockIdle[len(c.blockIdle)-1] = int32(len(c.idle))
	for i := 0; i < n; i++ {
		for s := c.fRowPtr[i]; s < c.fRowPtr[i+1]; s++ {
			j := c.fCol[s]
			tslot := c.cnt[j]
			c.cnt[j] = tslot + 1
			c.tCol[tslot] = int32(i)
			c.perm[s] = tslot
		}
	}
	c.shapeDirty = false
	e.refreshCSRValues()
}

// refreshCSRValues recomputes row totals and normalized values against the
// current sums without touching the structure. Totals accumulate in
// ascending-ratee order, matching the reference rebuild bit for bit.
func (e *Engine) refreshCSRValues() {
	n := e.cfg.NumNodes
	for i := 0; i < n; i++ {
		e.refreshCSRRow(i)
	}
	e.csr.valsDirty = false
	e.clearDirtyRows()
}

// refreshDirtyRows refreshes only the rows whose values changed since the
// last rebuild/refresh. Each row normalizes independently of every other, so
// the refreshed rows are bit-identical to a full refresh and the untouched
// rows are already correct.
func (e *Engine) refreshDirtyRows() {
	for _, i := range e.csr.dirtyRows {
		e.refreshCSRRow(i)
	}
	e.csr.valsDirty = false
	e.clearDirtyRows()
}

// refreshCSRRow recomputes one forward row's total and normalized
// transposed values. The row's positive sums are exactly the forward row's
// slots, in the same order, because any change to that set marks the shape
// dirty and rebuilds first.
func (e *Engine) refreshCSRRow(i int) {
	c := &e.csr
	lo, hi := c.fRowPtr[i], c.fRowPtr[i+1]
	if lo == hi {
		c.rowTotal[i] = 0
		return
	}
	total := 0.0
	s := lo
	for _, lt := range e.rows[i] {
		if lt.sum > 0 {
			c.fVal[s] = lt.sum
			total += lt.sum
			s++
		}
	}
	c.rowTotal[i] = total
	for s := lo; s < hi; s++ {
		c.tVal[c.perm[s]] = c.fVal[s] / total
	}
}

// powerIterate recomputes the global trust vector t, recording iteration
// count and final L1 residual in Stats (and the eigentrust_* metrics). The
// sparse matrix is reused from the previous update: a from-scratch rebuild
// happens only when the outlink set changed shape, a dirty-row value
// refresh when only magnitudes moved, and neither on a no-op recompute.
// A no-op recompute whose previous vector converged skips the iteration
// entirely — the fixpoint of an identical system stands. The skip is a
// pipeline semantic, applied under Config.FullRecompute too, so both modes
// stay bit-identical.
func (e *Engine) powerIterate() {
	sp := mUpdateLat.Start()
	matrixChanged := e.csr.shapeDirty || e.csr.valsDirty
	if !matrixChanged && e.stats.Updates > 0 && e.stats.Converged {
		e.stats.Updates++
		e.stats.Skipped = true
		e.stats.Iterations = 0
		sp.End()
		mWarmSkips.Inc()
		mUpdatesTotal.Inc()
		mIterations.Set(0)
		mConverged.Set(1)
		return
	}
	// The update span parents to the interval driver's ambient context; the
	// CSR and per-iteration children share its phase so only this span feeds
	// the attribution ledger. All sites are nil no-ops with tracing off.
	tsp := span.Ambient("eigentrust.update", span.PhaseIterate)
	n := e.cfg.NumNodes
	switch {
	case e.csr.shapeDirty || (e.cfg.FullRecompute && matrixChanged):
		rsp := tsp.Child("eigentrust.csr_rebuild", span.PhaseIterate)
		e.rebuildCSR()
		rsp.End()
		mCSRRebuilds.Inc()
	case e.csr.valsDirty:
		rsp := tsp.Child("eigentrust.csr_refresh", span.PhaseIterate)
		e.refreshDirtyRows()
		rsp.End()
	}
	a := e.cfg.PretrustWeight
	t := e.t
	next := e.next
	nb := (n + etBlock - 1) / etBlock
	workers := e.cfg.Workers
	if workers > nb {
		workers = nb
	}
	mMatvecWorkers.Set(float64(workers))
	c := &e.csr
	c.resid = grown(c.resid, nb)
	c.dang = grown(c.dang, nb)
	// Mass held by dangling rows redistributes along p. Each step returns
	// the next step's, so t is summed for it only once per update.
	forBlocks(nb, workers, func(b int) { c.dang[b] = e.danglingMass(b, t) })
	dangling := treeReduce(c.dang)
	// The first step takes t from the previous update (or ImportState,
	// Reset, ResetNode), which need not be uniform over an idle run; every
	// later step takes it from a step that gave each run one value.
	uniform := false
	step := func(b int) { c.resid[b], c.dang[b] = e.stepBlock(b, t, next, a, dangling, uniform) }
	iters, residual, converged := 0, 0.0, false
	for iter := 0; iter < e.cfg.MaxIter; iter++ {
		isp := tsp.Child("eigentrust.step", span.PhaseIterate)
		forBlocks(nb, workers, step)
		diff := treeReduce(c.resid)
		dangling = treeReduce(c.dang)
		uniform = true
		isp.End()
		t, next = next, t
		iters, residual = iter+1, diff
		if diff < e.cfg.Epsilon {
			converged = true
			break
		}
	}
	e.t, e.next = t, next
	e.stats = Stats{Iterations: iters, Residual: residual, Converged: converged, Updates: e.stats.Updates + 1}
	tsp.SetInt("iterations", int64(iters)).SetInt("nodes", int64(n)).End()
	sp.End()
	mIterations.Set(float64(iters))
	mResidual.Set(residual)
	mIterationsTotal.Add(int64(iters))
	mUpdatesTotal.Inc()
	if converged {
		mConverged.Set(1)
	} else {
		mConverged.Set(0)
		mMaxIterHits.Inc()
	}
}

// etBlock is the fixed row-block granularity of the parallel mat-vec and
// its reductions. Blocks are a pure function of n — workers only decide who
// computes a block — so every float accumulation order, and therefore the
// trust vector, is bit-identical from Workers=1 to Workers=N. Networks at
// or below one block degenerate to the plain serial sums of the pre-CSR
// reference algorithm (pinned bitwise by csr_test.go); FuzzEngineBlocks pins
// several blocks against the same reference summed over the same blocks.
const etBlock = 256

// nodeValue is one node's next trust, (1−a)·(sum + dangling·p) + a·p, given
// the sum over its in-links. Both paths of stepBlock evaluate it.
func nodeValue(sum, dangling, a, p float64) float64 {
	return (1-a)*(sum+dangling*p) + a*p
}

// danglingMass is block b's share of the mass t holds on dangling rows,
// summed in index order.
func (e *Engine) danglingMass(b int, t []float64) float64 {
	c := &e.csr
	sum := 0.0
	for i := b * etBlock; i < min((b+1)*etBlock, e.cfg.NumNodes); i++ {
		if c.rowTotal[i] <= 0 {
			sum += t[i]
		}
	}
	return sum
}

// stepBlock computes block b's rows of next = (1−a)·(Cᵀt + dangling·p) + a·p
// over the transposed CSR and returns the block's partials of |next − t|
// and of the dangling rows' mass in next, both accumulated in index order.
// When uniform holds, every idle run has one value in t, so the run's value
// and distance are computed once and only the store and the two additions
// repeat per node: the same additions in the same order as the per-node
// path, so the trust vector, the residual and the iteration count keep
// every bit.
func (e *Engine) stepBlock(b int, t, next []float64, a, dangling float64, uniform bool) (diff, dang float64) {
	c := &e.csr
	j, hi := b*etBlock, min((b+1)*etBlock, e.cfg.NumNodes)
	if uniform {
		for _, r := range c.idle[c.blockIdle[b]:c.blockIdle[b+1]] {
			diff, dang = e.stepNodes(t, next, j, int(r.lo), a, dangling, diff, dang)
			v := nodeValue(0, dangling, a, e.p[r.lo])
			d := v - t[r.lo]
			if d < 0 {
				d = -d
			}
			for j = int(r.lo); j < int(r.hi); j++ {
				next[j] = v
				diff += d
				dang += v
			}
		}
	}
	return e.stepNodes(t, next, j, hi, a, dangling, diff, dang)
}

// stepNodes is stepBlock's per-node path over rows [lo, hi), carrying the
// block's two partials through. The flat tCol/tVal arrays keep the inner
// loop free of per-entry pointer chasing and allocation.
func (e *Engine) stepNodes(t, next []float64, lo, hi int, a, dangling, diff, dang float64) (float64, float64) {
	rowPtr, col, val, rowTotal, p := e.csr.tRowPtr, e.csr.tCol, e.csr.tVal, e.csr.rowTotal, e.p
	for j := lo; j < hi; j++ {
		sum := 0.0
		for s := rowPtr[j]; s < rowPtr[j+1]; s++ {
			sum += val[s] * t[col[s]]
		}
		v := nodeValue(sum, dangling, a, p[j])
		next[j] = v
		d := v - t[j]
		if d < 0 {
			d = -d
		}
		diff += d
		if rowTotal[j] <= 0 {
			dang += v
		}
	}
	return diff, dang
}

// forBlocks runs fn for every fixed etBlock-sized row block, fanning the
// blocks across at most workers goroutines pulling indices from a shared
// counter. fn writes block b's partials to slot b, so the tree reductions
// that follow see the same values in the same slots for any worker count.
func forBlocks(nb, workers int, fn func(b int)) {
	if workers <= 1 || nb <= 1 {
		for b := 0; b < nb; b++ {
			fn(b)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				b := int(next.Add(1)) - 1
				if b >= nb {
					return
				}
				fn(b)
			}
		}()
	}
	wg.Wait()
}

// treeReduce folds the partials pairwise in place — the upper half onto the
// lower — halving the width until one value remains. The pairing is a pure
// function of the partial count, pinning the float result regardless of
// which goroutine filled which slot.
func treeReduce(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	for width := len(xs); width > 1; {
		half := (width + 1) / 2
		for i := 0; i < width-half; i++ {
			xs[i] += xs[half+i]
		}
		width = half
	}
	return xs[0]
}

// Reputations implements reputation.Engine: a copy of the trust vector,
// which sums to 1 by construction.
func (e *Engine) Reputations() []float64 {
	return append([]float64(nil), e.t...)
}

// Reputation returns the global trust of one node.
func (e *Engine) Reputation(node int) float64 {
	if node < 0 || node >= e.cfg.NumNodes {
		panic(fmt.Sprintf("eigentrust: node %d out of range", node))
	}
	return e.t[node]
}

// LocalTrust exposes the accumulated (pre-normalization) local trust value
// s_ij, useful for tests and diagnostics.
func (e *Engine) LocalTrust(i, j int) float64 {
	row := e.rows[i]
	if k, found := findRatee(row, j); found {
		return row[k].sum
	}
	return 0
}

// State is the persistent core of an engine: the local trust sums, the
// global trust vector, and the convergence statistics. The rows and CSR
// matrix are derived from Sums and rebuilt on import; scratch buffers are
// not state.
type State struct {
	Sums  map[rating.PairKey]float64
	T     []float64
	Stats Stats
}

// Validate reports whether the state fits a numNodes-node engine: one trust
// value per node, and every pair between two distinct nodes in
// [0, numNodes). A state read from a file must pass it before ImportState.
func (st State) Validate(numNodes int) error {
	if len(st.T) != numNodes {
		return fmt.Errorf("eigentrust: state with %d-node trust vector, want %d", len(st.T), numNodes)
	}
	for k := range st.Sums {
		if k.Rater < 0 || k.Rater >= numNodes || k.Ratee < 0 || k.Ratee >= numNodes {
			return fmt.Errorf("eigentrust: state pair %d->%d outside [0, %d)", k.Rater, k.Ratee, numNodes)
		}
		if k.Rater == k.Ratee {
			return fmt.Errorf("eigentrust: state self pair for node %d", k.Rater)
		}
	}
	return nil
}

// ExportState deep-copies the engine's persistent state for snapshotting.
func (e *Engine) ExportState() State {
	st := State{
		Sums:  make(map[rating.PairKey]float64),
		T:     append([]float64(nil), e.t...),
		Stats: e.stats,
	}
	for i, row := range e.rows {
		for _, lt := range row {
			st.Sums[rating.PairKey{Rater: i, Ratee: lt.ratee}] = lt.sum
		}
	}
	return st
}

// ImportState restores a previously exported state, which must pass
// Validate for the engine's node count. The rows are rebuilt from Sums and
// the CSR matrix is reconstructed eagerly, leaving the dirty flags clean —
// exactly the state the exporting engine was in at its interval boundary, so
// a subsequent quiet interval still takes the warm-start skip and a busy one
// folds in bit-identically.
func (e *Engine) ImportState(st State) {
	if err := st.Validate(e.cfg.NumNodes); err != nil {
		panic(err)
	}
	clear(e.rows)
	for k, v := range st.Sums {
		e.rows[k.Rater] = append(e.rows[k.Rater], localTrust{ratee: k.Ratee, sum: v})
	}
	for _, row := range e.rows {
		slices.SortFunc(row, func(a, b localTrust) int { return cmp.Compare(a.ratee, b.ratee) })
	}
	e.t = append(e.t[:0], st.T...)
	e.csr.shapeDirty = true
	e.csr.valsDirty = false
	e.clearDirtyRows()
	e.rebuildCSR()
	e.stats = st.Stats
}
