package health

import (
	"fmt"
	"sort"
)

// verdict is one rule's judgement of the newest sample. status == StatusOK
// means the rule's condition did not fire this tick (the hold/decay machine
// in evalRule decides whether an earlier verdict lingers).
type verdict struct {
	status    Status
	detail    string
	value     float64
	threshold float64
}

func ok() verdict { return verdict{} }

// rule is one watchdog: a named, per-component predicate over consecutive
// samples, with streak state for rules that require sustained conditions.
// Rules only read Samples — never registry internals — so the full watchdog
// pass costs a handful of float compares per tick.
type rule struct {
	name      string
	component string
	eval      func(r *rule, prev, cur *Sample) verdict

	streak    int // consecutive firing samples, maintained by each eval
	status    Status
	holdLeft  int
	detail    string
	value     float64
	threshold float64
}

// newRules builds the watchdog set. Thresholds are the package constants;
// cfg supplies the SLO budget. Rules that need deltas return ok on the first
// sample.
func newRules(cfg Config) []*rule {
	return []*rule{
		// Mailbox backlog growing with no drain progress: the overlay is
		// accepting work faster than shards retire it, or a drain stalled.
		{name: "mailbox-backlog", component: "manager", eval: func(r *rule, prev, cur *Sample) verdict {
			if prev == nil || !(cur.MailboxDepth > prev.MailboxDepth && cur.Drains == prev.Drains) {
				r.streak = 0
				return ok()
			}
			r.streak++
			switch {
			case r.streak >= backlogFailingStreak:
				return verdict{StatusFailing,
					fmt.Sprintf("mailbox depth rose %d consecutive samples without a drain", r.streak),
					cur.MailboxDepth, backlogFailingStreak}
			case r.streak >= backlogDegradedStreak:
				return verdict{StatusDegraded,
					fmt.Sprintf("mailbox depth rose %d consecutive samples without a drain", r.streak),
					cur.MailboxDepth, backlogDegradedStreak}
			}
			return ok()
		}},
		// Partial drains: an interval lost at least one shard's ratings
		// outright — degraded immediately, failing when sustained.
		{name: "partial-drain-streak", component: "manager", eval: func(r *rule, prev, cur *Sample) verdict {
			if prev == nil || cur.PartialDrains <= prev.PartialDrains {
				r.streak = 0
				return ok()
			}
			r.streak++
			st := StatusDegraded
			if r.streak >= streakFailing {
				st = StatusFailing
			}
			return verdict{st,
				fmt.Sprintf("%g partial drains this sample (streak %d)", cur.PartialDrains-prev.PartialDrains, r.streak),
				cur.PartialDrains - prev.PartialDrains, streakFailing}
		}},
		// Replica-recovered drains: no data lost, but the overlay is running
		// on mirrors — degraded while it persists.
		{name: "drain-degraded", component: "manager", eval: func(_ *rule, prev, cur *Sample) verdict {
			if prev == nil || cur.ReplicaDrains <= prev.ReplicaDrains {
				return ok()
			}
			return verdict{StatusDegraded,
				fmt.Sprintf("%g shard intervals recovered from replica mirrors this sample", cur.ReplicaDrains-prev.ReplicaDrains),
				cur.ReplicaDrains - prev.ReplicaDrains, 0}
		}},
		// Failovers: submissions rerouted around crashed shards. Capped at
		// degraded no matter how long it persists — a failover is the
		// fault-tolerance path succeeding (every rating still lands), so
		// sustained rerouting means reduced capacity, not lost data. The
		// failing escalations are reserved for loss (partial drains) and
		// liveness (backlog growth, all shards down).
		{name: "failover-streak", component: "manager", eval: func(r *rule, prev, cur *Sample) verdict {
			if prev == nil || cur.Failovers <= prev.Failovers {
				r.streak = 0
				return ok()
			}
			r.streak++
			return verdict{StatusDegraded,
				fmt.Sprintf("%g submissions failed over this sample (streak %d)", cur.Failovers-prev.Failovers, r.streak),
				cur.Failovers - prev.Failovers, 0}
		}},
		// Shard outage: crashed shards awaiting restart. Degraded while any
		// are down; failing when every shard is gone.
		{name: "shard-outage", component: "manager", eval: func(_ *rule, _, cur *Sample) verdict {
			if cur.ShardsDown <= 0 {
				return ok()
			}
			if cur.Shards > 0 && cur.ShardsDown >= cur.Shards {
				return verdict{StatusFailing,
					fmt.Sprintf("all %g shards down", cur.Shards), cur.ShardsDown, cur.Shards}
			}
			return verdict{StatusDegraded,
				fmt.Sprintf("%g of %g shards down", cur.ShardsDown, cur.Shards), cur.ShardsDown, 0}
		}},
		// EigenTrust hit its iteration cap without converging.
		{name: "eigentrust-maxiter", component: "eigentrust", eval: func(_ *rule, prev, cur *Sample) verdict {
			if prev == nil || cur.MaxIterHits <= prev.MaxIterHits {
				return ok()
			}
			return verdict{StatusDegraded,
				fmt.Sprintf("%g power iterations hit MaxIter this sample", cur.MaxIterHits-prev.MaxIterHits),
				cur.MaxIterHits - prev.MaxIterHits, 0}
		}},
		// Residual stall: MaxIter hits with a residual that is not shrinking
		// — the iteration is spinning, not converging.
		{name: "eigentrust-residual-stall", component: "eigentrust", eval: func(r *rule, prev, cur *Sample) verdict {
			if prev == nil || cur.MaxIterHits <= prev.MaxIterHits || cur.Residual < prev.Residual {
				r.streak = 0
				return ok()
			}
			r.streak++
			st := StatusDegraded
			if r.streak >= residualStallStreak {
				st = StatusFailing
			}
			return verdict{st,
				fmt.Sprintf("residual %.3g not decreasing across %d MaxIter-capped updates", cur.Residual, r.streak),
				cur.Residual, prev.Residual}
		}},
		// Interval SLO: the mean simulation-cycle wall time of the cycles
		// completed since the last sample overran the configured budget.
		{name: "interval-slo", component: "sim", eval: func(_ *rule, prev, cur *Sample) verdict {
			if cfg.SLOInterval <= 0 || prev == nil || cur.CycleCount <= prev.CycleCount {
				return ok()
			}
			mean := (cur.CycleSum - prev.CycleSum) / (cur.CycleCount - prev.CycleCount)
			budget := cfg.SLOInterval.Seconds()
			switch {
			case mean > 2*budget:
				return verdict{StatusFailing,
					fmt.Sprintf("mean interval %.3fs > 2x %.3fs budget", mean, budget), mean, 2 * budget}
			case mean > budget:
				return verdict{StatusDegraded,
					fmt.Sprintf("mean interval %.3fs > %.3fs budget", mean, budget), mean, budget}
			}
			return ok()
		}},
		// Durability failures: WAL appends, fsyncs, or snapshot writes
		// erroring. The run continues (checkpoint failures degrade
		// durability, not correctness) but acknowledged data may no longer
		// survive a crash — degraded immediately, failing when sustained.
		{name: "persist-errors", component: "persist", eval: func(r *rule, prev, cur *Sample) verdict {
			if prev == nil || cur.PersistErrors <= prev.PersistErrors {
				r.streak = 0
				return ok()
			}
			r.streak++
			st := StatusDegraded
			if r.streak >= streakFailing {
				st = StatusFailing
			}
			return verdict{st,
				fmt.Sprintf("%g durability failures this sample (streak %d)", cur.PersistErrors-prev.PersistErrors, r.streak),
				cur.PersistErrors - prev.PersistErrors, streakFailing}
		}},
		// WAL fsync latency: the mean fsync since the last sample overran
		// the budget — the disk is slowing the durable ingest ack path.
		{name: "wal-fsync-slow", component: "persist", eval: func(_ *rule, prev, cur *Sample) verdict {
			if prev == nil || cur.PersistFsyncCount <= prev.PersistFsyncCount {
				return ok()
			}
			mean := (cur.PersistFsyncSum - prev.PersistFsyncSum) / (cur.PersistFsyncCount - prev.PersistFsyncCount)
			budget := fsyncDegradedSeconds
			switch {
			case mean > 10*budget:
				return verdict{StatusFailing,
					fmt.Sprintf("mean WAL fsync %.3fs > 10x %.3fs budget", mean, budget), mean, 10 * budget}
			case mean > budget:
				return verdict{StatusDegraded,
					fmt.Sprintf("mean WAL fsync %.3fs > %.3fs budget", mean, budget), mean, budget}
			}
			return ok()
		}},
		// Leak heuristics: strictly monotonic goroutine/heap growth across
		// the whole leak window. Plateaus and dips reset the suspicion —
		// workloads legitimately grow, but never without a single pause.
		leakRule("goroutine-leak", "goroutines rose strictly for %d samples (now %d)",
			func(x *Sample) float64 { return float64(x.Goroutines) }),
		leakRule("heap-leak", "heap grew strictly for %d samples (now %d bytes)",
			func(x *Sample) float64 { return float64(x.HeapBytes) }),
	}
}

// leakRule builds a runtime rule that is degraded once key has risen
// strictly across leakWindow samples. Its run is the length of the
// window's strictly increasing suffix, counting its endpoints; it is kept
// apart from r.streak, which /statusz reports, because these rules never
// reported one.
func leakRule(name, format string, key func(*Sample) float64) *rule {
	run := 0
	return &rule{name: name, component: "runtime", eval: func(_ *rule, prev, cur *Sample) verdict {
		if prev != nil && key(cur) > key(prev) {
			run = min(run+1, windowSize)
		} else {
			run = 1
		}
		if run < leakWindow {
			return ok()
		}
		return verdict{StatusDegraded, fmt.Sprintf(format, run, uint64(key(cur))), key(cur), leakWindow}
	}}
}

// RuleStatus is one watchdog's externally visible state.
type RuleStatus struct {
	Rule      string  `json:"rule"`
	Status    Status  `json:"status"`
	Streak    int     `json:"streak,omitempty"`
	Detail    string  `json:"detail,omitempty"`
	Value     float64 `json:"value,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`
}

// ComponentStatus aggregates the rules judging one component.
type ComponentStatus struct {
	Name   string       `json:"name"`
	Status Status       `json:"status"`
	Rules  []RuleStatus `json:"rules"`
}

// Components returns the per-component verdicts, sorted by component name,
// each the max of its rules.
func (s *Sampler) Components() []ComponentStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	byName := map[string]*ComponentStatus{}
	var order []string
	for _, r := range s.rules {
		cs := byName[r.component]
		if cs == nil {
			cs = &ComponentStatus{Name: r.component}
			byName[r.component] = cs
			order = append(order, r.component)
		}
		if r.status > cs.Status {
			cs.Status = r.status
		}
		cs.Rules = append(cs.Rules, RuleStatus{
			Rule: r.name, Status: r.status, Streak: r.streak,
			Detail: r.detail, Value: r.value, Threshold: r.threshold,
		})
	}
	sort.Strings(order)
	out := make([]ComponentStatus, 0, len(order))
	for _, name := range order {
		out = append(out, *byName[name])
	}
	return out
}
