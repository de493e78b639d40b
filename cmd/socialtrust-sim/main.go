// Command socialtrust-sim regenerates the paper's evaluation tables and
// figures. Every experiment from the paper is addressable by id:
//
//	socialtrust-sim -list                 # show all experiments
//	socialtrust-sim -experiment fig8      # reproduce Figure 8
//	socialtrust-sim -experiment table1    # reproduce Table 1
//	socialtrust-sim -experiment fig8,fig9 # several at once
//	socialtrust-sim -experiment all       # run everything
//
// Use -quick for a shortened horizon (15 query cycles × 12 simulation
// cycles instead of the paper's 30 × 50) and -runs to change the number of
// seeded repetitions averaged per configuration (the paper uses 5).
//
// Observability:
//
//	-metrics-addr :9090     serve /metrics (Prometheus text) and
//	                        /metrics.json while experiments run
//	-pprof                  also mount net/http/pprof on the metrics server
//	-metrics-dump text      print a metrics snapshot after each experiment
//	                        (text or json)
//	-v                      periodic progress lines on stderr during runs
//	-health-addr :9091      serve the ops plane (/healthz, /readyz, /statusz
//	                        and /metrics) with a background health sampler;
//	                        watch it live with socialtrust-top
//	-health-sample 500ms    sampler cadence (default 1s)
//	-slo-interval 2s        per-interval wall-time budget for the
//	                        interval-slo watchdog
//
// Decision audit — instead of (or before) experiments, run one audited
// simulation whose per-decision forensics trail is written to a directory
// for cmd/socialtrust-audit:
//
//	socialtrust-sim -audit out/ -audit-model MCM
//	socialtrust-audit out/
//
// The audited run uses the paper's 200-node default geometry (tunable with
// -audit-nodes and -audit-b) and honors -seed, -quick and -managers. Its
// detection-quality table is printed after the run.
//
// Robustness — the audited run can be subjected to population churn and a
// deterministic fault-injection plan at the manager mailbox boundary
// (message drops, shard crashes), reproducible by fault seed:
//
//	socialtrust-sim -audit out/ -churn -fault-drop 0.1 -fault-crash -fault-seed 7
//
// Interval tracing — the audited run can additionally record hierarchical
// wall-time spans over its update intervals for cmd/socialtrust-trace
// (pointing -trace-dir at the audit directory keeps one trail):
//
//	socialtrust-sim -audit out/ -trace-dir out/
//	socialtrust-trace out/
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"time"

	"socialtrust/internal/audit"
	"socialtrust/internal/cluster"
	"socialtrust/internal/experiments"
	"socialtrust/internal/fault"
	"socialtrust/internal/obs"
	"socialtrust/internal/obs/health"
	"socialtrust/internal/sim"
)

func main() {
	cluster.WorkerMainIfChild() // -cluster re-execs this binary as a shard worker
	var (
		list     = flag.Bool("list", false, "list available experiments")
		exp      = flag.String("experiment", "", "experiment id to run (or 'all')")
		runs     = flag.Int("runs", 5, "seeded repetitions per configuration")
		seed     = flag.Uint64("seed", 1, "base random seed")
		quick    = flag.Bool("quick", false, "shortened horizon for smoke runs")
		series   = flag.Bool("series", false, "also emit per-node reputation vectors as CSV")
		mgrs     = flag.Int("managers", 0, "route ratings through a resource-manager overlay of this many shards (0 = one shard)")
		clusterN = flag.Int("cluster", 0, "host the audited run's manager shards in this many worker processes over the socket transport (0 = in-process; defaults -managers to 8)")
		mAddr    = flag.String("metrics-addr", "", "serve /metrics and /metrics.json on this address while running")
		mPprof   = flag.Bool("pprof", false, "mount net/http/pprof on the metrics server (requires -metrics-addr)")
		mDump    = flag.String("metrics-dump", "", "print a metrics snapshot after each experiment: text|json")
		verbose  = flag.Bool("v", false, "verbose progress logging on stderr")

		healthAddr   = flag.String("health-addr", "", "serve the ops plane on this address: /healthz, /readyz, /statusz plus /metrics (watch with socialtrust-top)")
		healthSample = flag.Duration("health-sample", time.Second, "health sampler cadence (requires -health-addr)")
		sloInterval  = flag.Duration("slo-interval", 0, "per-update-interval wall-time budget judged by the interval-slo watchdog (0 = disabled; requires -health-addr)")

		auditDir   = flag.String("audit", "", "run one audited simulation and write its decision-audit trail to this directory")
		auditModel = flag.String("audit-model", "MCM", "collusion model of the audited run: none|PCM|MCM|MMM")
		auditNodes = flag.Int("audit-nodes", 200, "network size of the audited run")
		auditB     = flag.Float64("audit-b", 0.2, "colluder QoS probability of the audited run")
		traceDir   = flag.String("trace-dir", "", "trace the audited run's intervals and write the span stream to this directory (point at the -audit dir to keep one trail)")
		stateDir   = flag.String("state-dir", "", "make the audited run durable: journal every rating to a WAL and checkpoint the full run state in this directory at each interval boundary; rerunning with the same directory after a crash resumes bit-identically")

		churn      = flag.Bool("churn", false, "churn the peer population of the audited run (moderate default regime)")
		faultDrop  = flag.Float64("fault-drop", 0, "per-delivery message drop probability injected at the manager mailbox boundary")
		faultCrash = flag.Bool("fault-crash", false, "inject random manager shard crashes (5% per shard per update interval)")
		faultSeed  = flag.Uint64("fault-seed", 0, "seed of the deterministic fault plan (same seed = same injected-event sequence)")
	)
	flag.Parse()

	if *mDump != "" && *mDump != "text" && *mDump != "json" {
		fmt.Fprintf(os.Stderr, "socialtrust-sim: -metrics-dump must be text or json, got %q\n", *mDump)
		os.Exit(2)
	}
	if *mPprof && *mAddr == "" {
		fmt.Fprintln(os.Stderr, "socialtrust-sim: -pprof requires -metrics-addr")
		os.Exit(2)
	}
	if *mgrs < 0 {
		fmt.Fprintf(os.Stderr, "socialtrust-sim: -managers must be >= 0, got %d\n", *mgrs)
		os.Exit(2)
	}
	if *verbose {
		obs.SetLogLevel(slog.LevelInfo)
	}
	if *mDump != "" || *verbose {
		obs.Enable()
	}
	if *mAddr != "" {
		srv, err := obs.Serve(*mAddr, *mPprof) // Serve enables recording
		if err != nil {
			fmt.Fprintf(os.Stderr, "socialtrust-sim: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "metrics on http://%s/metrics", srv.Addr)
		if *mPprof {
			fmt.Fprintf(os.Stderr, " (pprof on /debug/pprof/)")
		}
		fmt.Fprintln(os.Stderr)
	}
	if *sloInterval < 0 || (*sloInterval > 0 && *healthAddr == "") {
		fmt.Fprintln(os.Stderr, "socialtrust-sim: -slo-interval requires -health-addr and must be >= 0")
		os.Exit(2)
	}
	if *healthAddr != "" {
		sampler := health.Start(health.Config{Interval: *healthSample, SLOInterval: *sloInterval})
		defer sampler.Stop()
		srv, err := health.Serve(*healthAddr, *mPprof, sampler) // Serve enables recording
		if err != nil {
			fmt.Fprintf(os.Stderr, "socialtrust-sim: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "ops plane on http://%s/statusz (healthz, readyz, metrics)\n", srv.Addr)
	}

	faults := fault.Config{Seed: *faultSeed, Drop: *faultDrop}
	if *faultCrash {
		faults.CrashRate = 0.05
	}
	if faults.Enabled() && *auditDir == "" {
		fmt.Fprintln(os.Stderr, "socialtrust-sim: fault injection applies to the audited run; add -audit <dir>")
		os.Exit(2)
	}
	if *traceDir != "" && *auditDir == "" {
		fmt.Fprintln(os.Stderr, "socialtrust-sim: tracing applies to the audited run; add -audit <dir>")
		os.Exit(2)
	}
	if *stateDir != "" && *auditDir == "" {
		fmt.Fprintln(os.Stderr, "socialtrust-sim: durable state applies to the audited run; add -audit <dir>")
		os.Exit(2)
	}
	if *clusterN < 0 {
		fmt.Fprintf(os.Stderr, "socialtrust-sim: -cluster must be >= 0, got %d\n", *clusterN)
		os.Exit(2)
	}
	if *clusterN > 0 && *auditDir == "" {
		fmt.Fprintln(os.Stderr, "socialtrust-sim: cluster mode applies to the audited run; add -audit <dir>")
		os.Exit(2)
	}

	if *auditDir != "" {
		var churnCfg sim.ChurnConfig
		if *churn {
			churnCfg = sim.DefaultChurn()
		}
		if err := runAudited(*auditDir, *traceDir, *stateDir, *auditModel, *auditNodes, *auditB, *seed, *quick, *mgrs, *clusterN, churnCfg, faults); err != nil {
			fmt.Fprintf(os.Stderr, "socialtrust-sim: %v\n", err)
			os.Exit(1)
		}
		if *exp == "" {
			return
		}
	}

	if *list || *exp == "" {
		fmt.Println("available experiments:")
		for _, s := range experiments.All() {
			fmt.Printf("  %-8s %s\n           %s\n", s.ID, s.Title, s.Description)
		}
		if *exp == "" && !*list {
			fmt.Println("\nrun one with: socialtrust-sim -experiment <id>")
		}
		return
	}

	opts := experiments.Options{Runs: *runs, Seed: *seed, Quick: *quick, NodeSeries: *series, Managers: *mgrs}
	var ids []string
	if *exp == "all" {
		for _, s := range experiments.All() {
			ids = append(ids, s.ID)
		}
	} else {
		ids = strings.Split(*exp, ",")
	}
	for _, id := range ids {
		start := time.Now()
		if err := experiments.Run(id, opts, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "socialtrust-sim: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("(%s completed in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
		dumpMetrics(*mDump, id)
	}
}

// runAudited executes one simulation with the flight recorder on, writes
// the audit trail to dir, and prints the run's detection-quality table —
// optionally under churn, a deterministic fault-injection regime, interval
// tracing (traceDir non-empty), and durable state with crash-restart
// recovery (stateDir non-empty).
func runAudited(dir, traceDir, stateDir, model string, nodes int, b float64, seed uint64, quick bool, managers, clusterN int,
	churn sim.ChurnConfig, faults fault.Config) error {
	var m sim.CollusionModel
	switch strings.ToUpper(model) {
	case "NONE":
		m = sim.NoCollusion
	case "PCM":
		m = sim.PCM
	case "MCM":
		m = sim.MCM
	case "MMM":
		m = sim.MMM
	default:
		return fmt.Errorf("-audit-model must be none, PCM, MCM or MMM, got %q", model)
	}
	cfg := sim.DefaultConfig(m, sim.EngineEigenTrust, b, true)
	cfg.NumNodes = nodes
	if nodes != 200 {
		// Preserve the paper's population proportions at other sizes.
		cfg.NumPretrusted = nodes * 9 / 200
		cfg.NumColluders = (nodes * 30 / 200) &^ 1
		cfg.NumBoosted = cfg.NumColluders / 4
	}
	if quick {
		cfg.QueryCycles = 15
		cfg.SimulationCycles = 12
	}
	cfg.Seed = seed
	cfg.Managers = managers
	cfg.Cluster = clusterN
	if clusterN > 0 && cfg.Managers <= 0 {
		// Worker processes host manager shards; one shard fills one worker.
		cfg.Managers = 8
		fmt.Fprintln(os.Stderr, "-cluster: one shard would occupy a single worker process; defaulting -managers to 8")
	}
	cfg.AuditDir = dir
	cfg.TraceDir = traceDir
	cfg.StateDir = stateDir
	cfg.Churn = churn
	cfg.Faults = faults
	if faults.Enabled() && cfg.Managers <= 0 {
		// Replica failover needs a successor shard to mirror to.
		cfg.Managers = 8
		fmt.Fprintln(os.Stderr, "fault injection: replicas need at least two shards; defaulting -managers to 8")
	}

	start := time.Now()
	res, err := sim.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("audited %s run (%d nodes, %d colluders) in %v; trail in %s\n",
		m, cfg.NumNodes, cfg.NumColluders, time.Since(start).Round(time.Millisecond), dir)
	if churn.Enabled() {
		fmt.Printf("churn: %d departures, %d rejoins (%d whitewash)\n",
			res.Churn.Departures, res.Churn.Rejoins, res.Churn.WhitewashRejoins)
	}
	if faults.Enabled() {
		fmt.Printf("faults: %d ratings lost, %d partial drains, %d replica-recovered shard intervals\n",
			res.RatingsLost, res.PartialDrains, res.ReplicaDrains)
	}
	if traceDir != "" {
		fmt.Printf("interval trace in %s (inspect with socialtrust-trace)\n", traceDir)
	}
	gt, events, err := audit.LoadDir(dir)
	if err != nil {
		return err
	}
	if err := audit.Score(gt, events).WriteTable(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	return nil
}

// dumpMetrics prints the obs snapshot after one experiment in the requested
// format (no-op for an empty format).
func dumpMetrics(format, id string) {
	if format == "" {
		return
	}
	obs.CaptureRuntime()
	fmt.Printf("-- metrics after %s --\n", id)
	var err error
	switch format {
	case "json":
		err = obs.WriteJSON(os.Stdout)
	default:
		err = obs.WriteText(os.Stdout)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "socialtrust-sim: metrics dump: %v\n", err)
	}
	fmt.Println()
}
