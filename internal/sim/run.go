package sim

import (
	"context"
	"errors"
	"log/slog"
	"sync"
	"time"

	"socialtrust/internal/audit"
	"socialtrust/internal/interest"
	"socialtrust/internal/manager"
	"socialtrust/internal/obs"
	"socialtrust/internal/obs/event"
	"socialtrust/internal/obs/span"
	"socialtrust/internal/rating"
	"socialtrust/internal/socialgraph"
)

// Simulator metrics, updated once per simulation cycle (counters carry the
// cycle's deltas; gauges the most recent cycle's rates). sim_cycle_seconds
// is the wall time of one simulation cycle including the reputation update.
var (
	mSimCycles      = obs.C("sim_cycles_total")
	mSimRequests    = obs.C("sim_requests_total")
	mSimAuthentic   = obs.C("sim_authentic_total")
	mSimInauthentic = obs.C("sim_inauthentic_total")
	mSimColluderReq = obs.C("sim_colluder_requests_total")
	mCycleLat       = obs.H("sim_cycle_seconds")
	mLastCycle      = obs.G("sim_interval_last_seconds")
	mQPS            = obs.G("sim_queries_per_second")
	mAuthRatio      = obs.G("sim_authentic_ratio")

	// Churn and fault-regime accounting.
	mChurnDepart = obs.C("sim_churn_departures_total")
	mChurnRejoin = obs.C("sim_churn_rejoins_total")
	mChurnWash   = obs.C("sim_churn_whitewash_total")
	mRatingsLost = obs.C("sim_ratings_lost_total")
)

func init() {
	obs.Help("sim_cycles_total", "Simulation cycles (reputation update intervals) completed.")
	obs.Help("sim_requests_total", "Service requests issued by simulated peers.")
	obs.Help("sim_authentic_total", "Requests served authentically.")
	obs.Help("sim_inauthentic_total", "Requests served inauthentically.")
	obs.Help("sim_colluder_requests_total", "Requests routed to colluding providers.")
	obs.Help("sim_cycle_seconds", "Wall time of one simulation cycle including the reputation update.")
	obs.Help("sim_interval_last_seconds", "Wall time of the most recent simulation cycle — the quantity judged against the -slo-interval budget.")
	obs.Help("sim_queries_per_second", "Query throughput of the most recent cycle.")
	obs.Help("sim_authentic_ratio", "Authentic-service ratio of the most recent cycle.")
	obs.Help("sim_churn_departures_total", "Peers departed under the churn regime.")
	obs.Help("sim_churn_rejoins_total", "Peers rejoined under the churn regime.")
	obs.Help("sim_churn_whitewash_total", "Rejoins under a fresh (whitewashed) identity.")
	obs.Help("sim_ratings_lost_total", "Ratings lost to injected faults across all drains.")
}

// progressEvery throttles the simulator's periodic progress line (enabled by
// raising the obs log level to Info, e.g. via the CLIs' -v flag). The
// throttle is global on purpose: concurrently aggregated runs share it, so a
// panel of repetitions emits one line every interval rather than one per run.
var progressEvery = &obs.Throttle{Interval: 2 * time.Second}

// Result collects everything the paper's figures and tables read off a run.
type Result struct {
	// FinalReputations is the normalized reputation vector after the last
	// simulation cycle.
	FinalReputations []float64
	// History holds the reputation vector after each simulation cycle.
	History [][]float64

	// Request accounting over the whole run.
	TotalRequests       int
	RequestsToColluders int
	AuthenticServed     int
	InauthenticServed   int
	ServedByType        map[NodeType]int

	// ConvergenceCycles[c] is, per colluder (indexed as in ColluderIDs),
	// the 1-based simulation cycle after which its reputation stayed below
	// ConvergenceThreshold; -1 when it never settled below it.
	ConvergenceCycles []int

	// Whitewashes counts colluder identity resets (whitewashing attack).
	Whitewashes int

	// PerCycleColluderShare records the fraction of each simulation cycle's
	// requests served by colluders.
	PerCycleColluderShare []float64

	// Churn aggregates the run's population churn (zero when disabled).
	Churn ChurnStats

	// Fault-regime accounting (all zero without a fault plan). RatingsLost
	// counts submissions lost to injected faults (both the primary and the
	// replica copy failed); PartialDrains counts interval drains that
	// proceeded on a surviving quorum with data lost; ReplicaDrains counts
	// shard-intervals recovered from a replica mirror.
	RatingsLost   int
	PartialDrains int
	ReplicaDrains int
}

// ChurnStats aggregates churn events over a run.
type ChurnStats struct {
	Departures       int
	Rejoins          int
	WhitewashRejoins int
}

// ConvergenceThreshold is the colluder-reputation level of the paper's
// Section 5.9 efficiency measurement.
const ConvergenceThreshold = 0.001

// ColluderRequestShare returns the fraction of requests served by colluders
// (Table 1; Figure 7(c) uses the same accounting for malicious nodes).
func (r *Result) ColluderRequestShare() float64 {
	if r.TotalRequests == 0 {
		return 0
	}
	return float64(r.RequestsToColluders) / float64(r.TotalRequests)
}

// intent is one client's pre-drawn decision for a query cycle: the category
// it requests, its shuffled candidate preference order, and the uniform
// draw that decides service authenticity. Intents are computed concurrently;
// the cheap capacity-respecting assignment runs serially in node-ID order so
// results do not depend on goroutine scheduling.
type intent struct {
	client   int
	category interest.Category
	order    []int
	outcome  float64
	explore  bool // pick uniformly, ignoring reputation (exploration)
}

// Run executes the configured experiment and returns its Result. When
// Config.AuditDir is set, the run executes with the flight recorder enabled
// and its audit trail (ground truth + decision/cycle/manager events) is
// written there on completion. When Config.TraceDir is set, the run
// additionally executes with the interval span recorder enabled and the
// trace artifacts (trace_spans.jsonl + trace_chrome.json) are written
// there — pointing it at the audit dir puts the spans next to the event
// streams (filter_decisions.jsonl, cycle_series.jsonl, ...).
func Run(cfg Config) (*Result, error) {
	net, err := NewNetwork(cfg)
	if err != nil {
		return nil, err
	}
	var srec *span.Recorder
	if net.Cfg.TraceDir != "" {
		srec = span.Enable(traceCapacity(net.Cfg))
		defer span.Disable()
	}
	var rec *event.Recorder
	if net.Cfg.AuditDir != "" {
		rec = event.Enable(auditCapacity(net.Cfg))
		defer event.Disable()
	}
	res := net.Run()
	if rec != nil {
		events := rec.Drain()
		if len(net.savedEvents) > 0 {
			// Durable run: checkpoints drained the ring along the way (and a
			// resumed run inherits its predecessor's stream); the full audit
			// trail is the saved prefix plus whatever the ring still holds.
			events = append(append([]event.Event(nil), net.savedEvents...), events...)
		}
		if dropped := rec.Dropped(); dropped > 0 {
			obs.Logger().Warn("audit ring overflowed; oldest events lost",
				"dropped", dropped, "kept", len(events), "capacity", rec.Capacity())
		}
		if err := audit.WriteDir(net.Cfg.AuditDir, net.GroundTruth(), events); err != nil {
			return nil, err
		}
		if net.FaultPlan != nil {
			if err := audit.WriteFaultEvents(net.Cfg.AuditDir, net.FaultPlan.Events()); err != nil {
				return nil, err
			}
		}
	}
	if srec != nil {
		spans := srec.Drain()
		if dropped := srec.Dropped(); dropped > 0 {
			obs.Logger().Warn("trace ring overflowed; oldest spans lost",
				"dropped", dropped, "kept", len(spans), "capacity", srec.Capacity())
		}
		if err := audit.WriteTrace(net.Cfg.TraceDir, spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// auditCapacity sizes the flight-recorder ring for one audited run: room
// for every cycle's worth of flagged pairs plus cycle/manager records, with
// a hard cap keeping the up-front buffer in the tens of MB even for stress
// geometries.
func auditCapacity(cfg Config) int {
	c := cfg.SimulationCycles * (cfg.NumNodes + 64)
	if c < event.DefaultCapacity {
		return event.DefaultCapacity
	}
	if c > 1<<18 {
		return 1 << 18
	}
	return c
}

// traceCapacity sizes the span ring for one traced run: per simulation
// cycle, each query cycle emits one overlay submit plus a per-shard deliver,
// the drain a handful, and the engine one span per sub-phase and power
// iteration (bounded by MaxIter, 200 by default), with the same style of
// hard cap as auditCapacity.
func traceCapacity(cfg Config) int {
	c := cfg.SimulationCycles * (cfg.QueryCycles*(cfg.Managers+2) + 512)
	if c < span.DefaultCapacity {
		return span.DefaultCapacity
	}
	if c > 1<<19 {
		return 1 << 19
	}
	return c
}

// Run executes the simulation on a constructed network.
func (n *Network) Run() *Result {
	cfg := n.Cfg
	res := &Result{
		ServedByType:      make(map[NodeType]int),
		ConvergenceCycles: make([]int, cfg.NumColluders),
	}
	capacities := make([]int, cfg.NumNodes)
	reps := n.Engine.Reputations()
	intents := make([]intent, cfg.NumNodes)

	lastAbove := make([]int, cfg.NumColluders) // last 1-based cycle with rep >= threshold
	everAbove := make([]bool, cfg.NumColluders)
	lastTotal, lastColl := 0, 0

	// Oscillation attack: colluders start on their best behavior and
	// defect when their honeymoon expires.
	if cfg.OscillationCycle > 0 {
		for _, id := range cfg.ColluderIDs() {
			n.startHoneymoon(n.Nodes[id])
		}
	}

	start := 0
	if n.resume != nil {
		// Crash restart: restore every state surface at the last interval
		// boundary (overwriting the fresh-start honeymoon initialization
		// above), replay the interrupted interval's acknowledged WAL tail,
		// and re-execute that interval from its start. Restored random stream
		// positions make the re-execution regenerate exactly the ratings the
		// dead process generated; replayed sequence numbers are acknowledged
		// without double-counting.
		reps, start = n.applyResume(res, lastAbove, everAbove)
		lastTotal, lastColl = res.TotalRequests, res.RequestsToColluders
	} else {
		n.startFresh(res, lastAbove, everAbove, reps)
	}

	for sc := start; sc < cfg.SimulationCycles; sc++ {
		cycleStart := time.Now()
		// Interval tracing: one trace per simulation cycle. The root span is
		// installed as the ambient context so components reached through the
		// engine interface (overlay drain, core.Adjust, the power iteration)
		// parent under it; the ingest span takes over as ambient for the
		// query-cycle loop so overlay submits nest (and are excluded from the
		// ledger by the parent-phase rule). All of this is nil no-ops when
		// tracing is off.
		root := span.Root("sim.interval").SetInt("interval", int64(sc+1))
		prevAmb := span.SetAmbient(root.Context())
		reqBefore, authBefore, inauthBefore, collBefore :=
			res.TotalRequests, res.AuthenticServed, res.InauthenticServed, res.RequestsToColluders
		if cfg.OscillationCycle > 0 {
			for _, id := range cfg.ColluderIDs() {
				node := n.Nodes[id]
				if node.honeymoon > 0 {
					node.honeymoon--
					if node.honeymoon == 0 {
						node.Good = cfg.ColluderGood // defect
					}
				}
			}
		}
		departed, rejoined := 0, 0
		if cfg.Churn.Enabled() {
			departed, rejoined = n.churnStep(res)
		}
		isp := root.Child("sim.ingest", span.PhaseIngest).SetInt("query_cycles", int64(cfg.QueryCycles))
		span.SetAmbient(isp.Context())
		for qc := 0; qc < cfg.QueryCycles; qc++ {
			if n.haltAt != nil && n.haltAt.cycle == sc && n.haltAt.qc == qc {
				n.abandon() // test hook: die mid-interval like a kill -9
				return nil
			}
			cycle := sc*cfg.QueryCycles + qc
			for i := range capacities {
				if n.online[i] {
					capacities[i] = cfg.Capacity
				} else {
					capacities[i] = 0 // offline peers serve nothing
				}
			}
			n.computeIntents(intents, reps)
			n.assign(intents, capacities, reps, cycle, res)
			n.collude(cycle)
			n.flushRatings()
		}
		isp.End()
		span.SetAmbient(root.Context())
		res.PerCycleColluderShare = append(res.PerCycleColluderShare,
			cycleShare(res, &lastTotal, &lastColl))
		var st manager.DrainStatus
		reps, st = n.Overlay.EndIntervalStatus()
		if st.Partial {
			res.PartialDrains++
		}
		res.ReplicaDrains += len(st.ReplicaUsed)
		n.Tracker.Reset() // Equation 11 weights are per simulation cycle
		// Whitewashing: punished colluders abandon their identities (only
		// while online — an offline peer cannot re-enter).
		if cfg.WhitewashThreshold > 0 {
			washed := false
			for _, id := range cfg.ColluderIDs() {
				if n.online[id] && reps[id] < cfg.WhitewashThreshold {
					n.whitewash(id)
					res.Whitewashes++
					washed = true
				}
			}
			if washed {
				reps = n.Engine.Reputations()
			}
		}
		res.History = append(res.History, reps)
		for ci, id := range cfg.ColluderIDs() {
			if reps[id] >= ConvergenceThreshold {
				lastAbove[ci] = sc + 1
				everAbove[ci] = true
			}
		}
		span.SetAmbient(prevAmb)
		root.End()
		n.observeCycle(res, sc, cycleStart, reqBefore, authBefore, inauthBefore, collBefore, departed, rejoined, root.TraceID())
		n.checkpoint(res, lastAbove, everAbove, reps, sc+1)
	}
	n.Overlay.Close() // stop the manager goroutines and close the shard WALs
	n.closeCluster()
	res.RatingsLost = n.ratingsLost
	res.FinalReputations = reps
	for ci := range res.ConvergenceCycles {
		switch {
		case !everAbove[ci]:
			res.ConvergenceCycles[ci] = 1
		case lastAbove[ci] >= cfg.SimulationCycles:
			res.ConvergenceCycles[ci] = -1 // still above at the end
		default:
			res.ConvergenceCycles[ci] = lastAbove[ci] + 1
		}
	}
	return res
}

// observeCycle records one simulation cycle's metrics and, when Info-level
// logging is on, an at-most-every-2s progress line for long runs.
func (n *Network) observeCycle(res *Result, sc int, start time.Time, reqBefore, authBefore, inauthBefore, collBefore, departed, rejoined int, trace uint64) {
	wall := time.Since(start)
	// Collect the interval's phase attribution unconditionally so the span
	// ledger never accumulates traces, even when the flight recorder is off.
	var phases *event.PhaseSeconds
	if srec := span.Current(); srec != nil && trace != 0 {
		if att, ok := srec.TakeAttribution(trace); ok {
			phases = &event.PhaseSeconds{
				Total:    att.Total,
				Ingest:   att.Ingest,
				Drain:    att.Drain,
				Adjust:   att.Adjust,
				Iterate:  att.Iterate,
				Other:    att.Other(),
				Coverage: att.Coverage(),
			}
		}
	}
	requests := res.TotalRequests - reqBefore
	mSimCycles.Inc()
	mCycleLat.Observe(wall.Seconds())
	mLastCycle.Set(wall.Seconds())
	mSimRequests.Add(int64(requests))
	mSimAuthentic.Add(int64(res.AuthenticServed - authBefore))
	mSimInauthentic.Add(int64(res.InauthenticServed - inauthBefore))
	mSimColluderReq.Add(int64(res.RequestsToColluders - collBefore))
	qps := 0.0
	if secs := wall.Seconds(); secs > 0 {
		qps = float64(requests) / secs
	}
	mQPS.Set(qps)
	authRatio := 0.0
	if served := res.AuthenticServed + res.InauthenticServed; served > 0 {
		authRatio = float64(res.AuthenticServed) / float64(served)
	}
	mAuthRatio.Set(authRatio)
	if rec := event.Current(); rec != nil {
		cs := event.CycleSeries{
			Cycle:          sc + 1,
			Requests:       requests,
			QPS:            qps,
			AuthenticRatio: authRatio,
			WallSeconds:    wall.Seconds(),
		}
		if k := len(res.PerCycleColluderShare); k > 0 {
			cs.ColluderShare = res.PerCycleColluderShare[k-1]
		}
		if k := len(res.History); k > 0 {
			cs.MeanRepPretrusted, cs.MeanRepNormal, cs.MeanRepColluder =
				meanRepsByType(n.Cfg, res.History[k-1])
		}
		if n.Cfg.Churn.Enabled() {
			cs.Online = n.onlineCount()
			cs.Departures = departed
			cs.Rejoins = rejoined
		}
		cs.Phases = phases
		rec.RecordCycle(cs)
	}
	if obs.Logger().Enabled(context.Background(), slog.LevelInfo) && progressEvery.Allow() {
		obs.Logger().Info("sim progress",
			"engine", n.Engine.Name(),
			"cycle", sc+1, "cycles", n.Cfg.SimulationCycles,
			"requests", res.TotalRequests,
			"qps", int(qps),
			"authentic_ratio", authRatio,
			"cycle_wall", wall.Round(time.Millisecond))
	}
}

// meanRepsByType averages a reputation vector per node population.
func meanRepsByType(cfg Config, reps []float64) (pre, normal, coll float64) {
	var sums [3]float64
	var counts [3]int
	for id, r := range reps {
		t := cfg.Type(id)
		sums[t] += r
		counts[t]++
	}
	mean := func(t NodeType) float64 {
		if counts[t] == 0 {
			return 0
		}
		return sums[t] / float64(counts[t])
	}
	return mean(Pretrusted), mean(Normal), mean(Colluder)
}

// cycleShare computes the colluder request share since the previous call.
func cycleShare(res *Result, lastTotal, lastColl *int) float64 {
	dTotal := res.TotalRequests - *lastTotal
	dColl := res.RequestsToColluders - *lastColl
	*lastTotal, *lastColl = res.TotalRequests, res.RequestsToColluders
	if dTotal == 0 {
		return 0
	}
	return float64(dColl) / float64(dTotal)
}

// computeIntents fans the per-client decision work across Workers. Each
// client uses only its own RNG stream, so the result is independent of
// scheduling.
func (n *Network) computeIntents(out []intent, reps []float64) {
	workers := n.Cfg.Workers
	if workers > len(n.Nodes) {
		workers = len(n.Nodes)
	}
	var wg sync.WaitGroup
	block := (len(n.Nodes) + workers - 1) / workers
	for lo := 0; lo < len(n.Nodes); lo += block {
		hi := lo + block
		if hi > len(n.Nodes) {
			hi = len(n.Nodes)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for id := lo; id < hi; id++ {
				out[id] = n.intentFor(n.Nodes[id])
			}
		}(lo, hi)
	}
	wg.Wait()
}

// intentFor draws one node's query intent. An inactive node yields
// client == -1.
func (n *Network) intentFor(node *Node) intent {
	if !n.online[node.ID] {
		return intent{client: -1} // churned out: no queries this cycle
	}
	rng := node.rng
	if !rng.Bool(node.Activity) {
		return intent{client: -1}
	}
	// Request category: power-law over the node's own interests (trace
	// observation O5 — a user mostly requests its top categories).
	cat := node.InterestList[rng.Zipf(len(node.InterestList), 1.5)]
	pool := n.byCategory[cat]
	order := make([]int, len(pool))
	copy(order, pool)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return intent{
		client:   node.ID,
		category: cat,
		order:    order,
		outcome:  rng.Float64(),
		explore:  rng.Bool(n.Cfg.Exploration),
	}
}

// assign serves each active client in node-ID order. Server choice follows
// the EigenTrust paper's download-source rule: with probability Exploration
// the client picks a uniform candidate (letting newcomers earn trust and
// keeping negative feedback flowing to bad servers); otherwise it picks
// among candidates with reputation above SelectionThreshold with probability
// proportional to reputation, falling back to a uniform pick when nobody
// qualifies (the cold-start rule). Only candidates with spare capacity are
// considered. The client then rates the service and all substrate records
// are updated. The phase is serial in node-ID order so capacity contention
// resolves deterministically.
func (n *Network) assign(intents []intent, capacities []int, reps []float64, cycle int, res *Result) {
	for id := range intents {
		it := &intents[id]
		if it.client < 0 {
			continue
		}
		server := n.chooseServer(it, capacities, reps)
		if server < 0 {
			continue // no available server for this category
		}
		capacities[server]--
		srv := n.Nodes[server]
		authentic := it.outcome < srv.Good
		value := 1.0
		if authentic {
			res.AuthenticServed++
		} else {
			value = -1
			res.InauthenticServed++
		}
		res.TotalRequests++
		res.ServedByType[srv.Type]++
		if srv.Type == Colluder {
			res.RequestsToColluders++
		}
		n.record(it.client, server, value, cycle, it.category)
	}
}

// chooseServer resolves one intent against current capacities and
// reputations: a uniform pick among candidates whose reputation exceeds TR
// (the paper's rule — "randomly chooses a neighbor with available capacity
// greater than 0 and reputation higher than TR"). When nobody qualifies, the
// client picks uniformly among the highest-reputation candidates available —
// the paper's cold-start behavior ("a node randomly chooses from a number of
// options with the same reputation value 0"). Because the intent's candidate
// order is a uniform shuffle, "first qualifying in order" is a uniform draw
// from the qualifying set. Returns -1 when no candidate has spare capacity.
func (n *Network) chooseServer(it *intent, capacities []int, reps []float64) int {
	if it.explore {
		for _, cand := range it.order {
			if cand != it.client && capacities[cand] > 0 {
				return cand
			}
		}
		return -1
	}
	for _, cand := range it.order {
		if cand != it.client && capacities[cand] > 0 && reps[cand] > n.Cfg.SelectionThreshold {
			return cand
		}
	}
	// Cold-start fallback: first candidate holding the maximum reputation.
	best := -1
	for _, cand := range it.order {
		if cand != it.client && capacities[cand] > 0 {
			if best < 0 || reps[cand] > reps[best]+1e-12 {
				best = cand
			}
		}
	}
	return best
}

// record stores one rating event in every substrate: the overlay batch
// buffer drained by flushRatings, the social interaction table, and the
// request tracker. The client-side substrates record the interaction
// immediately — only delivery to the reputation system is batched.
func (n *Network) record(rater, ratee int, value float64, cycle int, cat interest.Category) {
	// Every rating gets a run-global ingest sequence number, durable or not:
	// it is the WAL replay dedupe key, and assigning it unconditionally keeps
	// persisted and plain runs on identical code paths (bit-identical output).
	n.seq++
	r := rating.Rating{Rater: rater, Ratee: ratee, Value: value, Cycle: cycle, Category: int(cat), Seq: n.seq}
	n.pending = append(n.pending, r)
	n.Graph.RecordInteraction(socialgraph.NodeID(rater), socialgraph.NodeID(ratee), 1)
	n.Tracker.Record(rater, cat)
}

// flushRatings ships the query cycle's buffered ratings to the overlay in
// one SubmitBatch call. Fault accounting is per rating, exactly as the
// unbatched path: a submission can be lost in transit (both the primary and
// the replica copy failed), in which case the reputation system never sees
// the rating while the client-side substrates keep the interaction.
func (n *Network) flushRatings() {
	errs := n.Overlay.SubmitBatch(n.pending)
	n.pending = n.pending[:0]
	for _, err := range errs {
		if err == nil {
			continue
		}
		if n.FaultPlan != nil && (errors.Is(err, manager.ErrTimeout) || errors.Is(err, manager.ErrShardDown)) {
			n.ratingsLost++
			mRatingsLost.Inc()
		} else {
			panic(err) // construction guarantees rater != ratee
		}
	}
}

// collude injects the per-query-cycle collusion ratings. Each boosting
// rating targets an interest randomly drawn from the boosted node's true
// profile, per Section 5.1.
func (n *Network) collude(cycle int) {
	for ei := range n.colludeEdges {
		e := &n.colludeEdges[ei]
		if !n.online[e.From] || !n.online[e.To] {
			continue // a churned-out partner cannot send or receive ratings
		}
		n.spam(e.From, e.To, e.Ratings, e.value(), cycle)
		if e.Back > 0 {
			n.spam(e.To, e.From, e.Back, e.value(), cycle)
		}
	}
}

func (n *Network) spam(from, to, count int, value float64, cycle int) {
	rng := n.Nodes[from].rng
	target := n.Nodes[to]
	for k := 0; k < count; k++ {
		cat := target.InterestList[rng.Intn(len(target.InterestList))]
		n.record(from, to, value, cycle, cat)
	}
}
