// Command stress exercises the simulator and the SocialTrust filter at
// network sizes beyond the paper's 200 nodes, reporting wall time,
// throughput, resource usage and whether collusion suppression holds as the
// population scales (the paper's "we also conducted experiments with
// different numbers of nodes and colluders; the relative performance
// differences remain").
//
//	stress                       # sweep 200, 400, 800 nodes
//	stress -sizes 200,1600 -cycles 10
//	stress -managers 8           # spread ratings over 8 manager shards
//	stress -metrics-addr :9090 -pprof   # live metrics + profiling
//	stress -health-addr :9091 -slo-interval 2s   # ops plane: probes + watchdogs
//	stress -audit out/           # decision-audit trail per size in out/n<size>
//	stress -churn -managers 8 -fault-drop 0.1 -fault-crash   # chaos sweep
//	stress -nodes scale          # pipeline sweep at the 2k/10k/50k presets
//	stress -nodes 2k,10k -intervals 5   # custom pipeline sweep
//	stress -nodes 50k -trace     # pipeline sweep with per-interval phase attribution
//	stress -nodes 50k -trace-dir out/   # also export the span stream for socialtrust-trace
//	stress -nodes 50k -sparse 0.01      # sparse-activity sweep: 1% of nodes rate per interval
//
// The -nodes mode bypasses the simulator and measures the raw interval
// pipeline — batched overlay ingest, drain, SocialTrust adjust, EigenTrust
// iteration — reporting ratings/sec ingest throughput and adjust+iterate
// wall time per interval: the BenchmarkPipeline numbers, reproducible
// without go test. Sizes take a k suffix (2k = 2000) in both -nodes and
// -sizes; "-nodes scale" expands to the 2k,10k,50k preset.
//
// Each size row includes the peak goroutine count and the bytes allocated
// during the run, sampled through the obs runtime gauges, so the scaling
// sweep doubles as a resource report.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"socialtrust"
	"socialtrust/internal/cluster"
	"socialtrust/internal/obs"
	"socialtrust/internal/obs/health"
)

func main() {
	cluster.WorkerMainIfChild() // -cluster re-execs this binary as a shard worker
	var (
		sizes    = flag.String("sizes", "200,400,800", "comma-separated network sizes")
		cycles   = flag.Int("cycles", 12, "simulation cycles per run")
		qc       = flag.Int("qc", 15, "query cycles per simulation cycle")
		b        = flag.Float64("b", 0.6, "colluder QoS probability")
		seed     = flag.Uint64("seed", 1, "random seed")
		managers = flag.Int("managers", 0, "route ratings through a resource-manager overlay of this many shards (0 = one shard)")
		mAddr    = flag.String("metrics-addr", "", "serve /metrics and /metrics.json on this address while running")
		mPprof   = flag.Bool("pprof", false, "mount net/http/pprof on the metrics server (requires -metrics-addr)")
		mDump    = flag.String("metrics-dump", "", "print a metrics snapshot after the sweep: text|json")
		auditDir = flag.String("audit", "", "write each size's decision-audit trail to <dir>/n<size>")
		stateDir = flag.String("state-dir", "", "durable runs: journal ratings to per-shard WALs and checkpoint run state under <dir>/n<size> (sim sweep resumes bit-identically after a crash; -nodes mode prices WAL-on ingest)")
		verbose  = flag.Bool("v", false, "verbose progress logging on stderr")

		healthAddr   = flag.String("health-addr", "", "serve the ops plane on this address: /healthz, /readyz, /statusz plus /metrics (watch with socialtrust-top)")
		healthSample = flag.Duration("health-sample", time.Second, "health sampler cadence (requires -health-addr)")
		sloInterval  = flag.Duration("slo-interval", 0, "per-update-interval wall-time budget judged by the interval-slo watchdog (0 = disabled; requires -health-addr)")

		nodes     = flag.String("nodes", "", "pipeline-sweep sizes (k suffix ok, e.g. 2k,10k,50k; \"scale\" = that preset); bypasses the simulator")
		intervals = flag.Int("intervals", 3, "update intervals per pipeline-sweep size (-nodes mode)")
		trace     = flag.Bool("trace", false, "trace the pipeline sweep's intervals and print per-interval phase attribution (-nodes mode)")
		traceDir  = flag.String("trace-dir", "", "write the pipeline sweep's span stream to this directory (implies -trace)")
		sparse    = flag.Float64("sparse", 0, "fraction of nodes active as raters per pipeline-sweep interval (0 or 1 = all; -nodes mode)")

		clusterN = flag.Int("cluster", 0, "host the pipeline sweep's manager shards in this many worker processes over the socket transport (0 = in-process; -nodes mode)")
		workerHP = flag.Int("worker-health-base", 0, "serve each cluster worker's ops plane on 127.0.0.1:(base+i) (requires -cluster)")

		churn      = flag.Bool("churn", false, "churn the peer population of every run (moderate default regime)")
		faultDrop  = flag.Float64("fault-drop", 0, "per-delivery message drop probability at the manager mailbox boundary")
		faultCrash = flag.Bool("fault-crash", false, "inject random manager shard crashes (5% per shard per update interval)")
		faultSeed  = flag.Uint64("fault-seed", 0, "seed of the deterministic fault plan")
	)
	flag.Parse()

	if *mDump != "" && *mDump != "text" && *mDump != "json" {
		fmt.Fprintln(os.Stderr, "stress: -metrics-dump must be text or json")
		os.Exit(2)
	}
	if *mPprof && *mAddr == "" {
		fmt.Fprintln(os.Stderr, "stress: -pprof requires -metrics-addr")
		os.Exit(2)
	}
	if *managers < 0 {
		fmt.Fprintf(os.Stderr, "stress: -managers must be >= 0, got %d\n", *managers)
		os.Exit(2)
	}
	faults := socialtrust.FaultConfig{Seed: *faultSeed, Drop: *faultDrop}
	if *faultCrash {
		faults.CrashRate = 0.05
	}
	if faults.Enabled() && *managers <= 0 {
		// Replica failover needs a successor shard to mirror to.
		*managers = 8
		fmt.Fprintln(os.Stderr, "fault injection: replicas need at least two shards; defaulting -managers to 8")
	}
	if *verbose {
		obs.SetLogLevel(slog.LevelInfo)
	}
	// stress is a measurement tool: metrics are always on.
	obs.Enable()
	if *mAddr != "" {
		srv, err := obs.Serve(*mAddr, *mPprof)
		if err != nil {
			fmt.Fprintf(os.Stderr, "stress: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "metrics on http://%s/metrics\n", srv.Addr)
	}
	if *sloInterval < 0 || (*sloInterval > 0 && *healthAddr == "") {
		fmt.Fprintln(os.Stderr, "stress: -slo-interval requires -health-addr and must be >= 0")
		os.Exit(2)
	}
	if *healthAddr != "" {
		sampler := health.Start(health.Config{Interval: *healthSample, SLOInterval: *sloInterval})
		defer sampler.Stop()
		srv, err := health.Serve(*healthAddr, *mPprof, sampler)
		if err != nil {
			fmt.Fprintf(os.Stderr, "stress: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "ops plane on http://%s/statusz (healthz, readyz, metrics)\n", srv.Addr)
	}

	// Background sampler feeding the runtime_* gauges (peaks included)
	// while runs execute.
	stopSampler := make(chan struct{})
	defer close(stopSampler)
	go func() {
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopSampler:
				return
			case <-tick.C:
				obs.CaptureRuntime()
			}
		}
	}()

	if (*trace || *traceDir != "") && *nodes == "" {
		fmt.Fprintln(os.Stderr, "stress: tracing applies to the pipeline sweep; add -nodes")
		os.Exit(2)
	}
	if *clusterN < 0 {
		fmt.Fprintln(os.Stderr, "stress: -cluster must be >= 0")
		os.Exit(2)
	}
	if (*clusterN > 0 || *workerHP != 0) && *nodes == "" {
		fmt.Fprintln(os.Stderr, "stress: cluster mode applies to the pipeline sweep; add -nodes")
		os.Exit(2)
	}
	if *workerHP != 0 && *clusterN <= 0 {
		fmt.Fprintln(os.Stderr, "stress: -worker-health-base requires -cluster")
		os.Exit(2)
	}
	if *nodes != "" {
		sweep := *nodes
		if sweep == "scale" {
			sweep = "2k,10k,50k"
		}
		var ns []int
		for _, tok := range strings.Split(sweep, ",") {
			n, err := parseSize(tok)
			if err != nil || n < 50 {
				fmt.Fprintf(os.Stderr, "stress: bad size %q\n", tok)
				os.Exit(1)
			}
			ns = append(ns, n)
		}
		runPipelineSweep(ns, *intervals, *seed, *traceDir, *trace || *traceDir != "", *sparse, *stateDir,
			*clusterN, *workerHP)
		return
	}

	fmt.Printf("%-8s %-10s %-12s %-14s %-12s %-8s %-10s %-10s\n",
		"nodes", "colluders", "wall", "requests/s", "coll/norm", "share", "peak-gor", "alloc")
	for _, tok := range strings.Split(*sizes, ",") {
		n, err := parseSize(tok)
		if err != nil || n < 50 {
			fmt.Fprintf(os.Stderr, "stress: bad size %q\n", tok)
			os.Exit(1)
		}
		cfg := socialtrust.DefaultSimConfig(socialtrust.PCM, socialtrust.EngineEigenTrust, *b, true)
		cfg.NumNodes = n
		// Scale the populations with the network, preserving the paper's
		// 4.5% pretrusted / 15% colluder proportions (colluders even for
		// PCM pairing).
		cfg.NumPretrusted = n * 9 / 200
		cfg.NumColluders = (n * 30 / 200) &^ 1
		cfg.NumBoosted = cfg.NumColluders / 4
		cfg.SimulationCycles = *cycles
		cfg.QueryCycles = *qc
		cfg.Seed = *seed
		cfg.Managers = *managers
		if *churn {
			cfg.Churn = socialtrust.DefaultChurn()
		}
		cfg.Faults = faults
		if *auditDir != "" {
			cfg.AuditDir = filepath.Join(*auditDir, fmt.Sprintf("n%d", n))
		}
		if *stateDir != "" {
			cfg.StateDir = filepath.Join(*stateDir, fmt.Sprintf("n%d", n))
		}

		obs.ResetRuntimePeaks()
		before := obs.CaptureRuntime()
		start := time.Now()
		res, err := socialtrust.RunSim(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "stress: %v\n", err)
			os.Exit(1)
		}
		wall := time.Since(start)
		obs.CaptureRuntime()
		snap := obs.ReadSnapshot()
		peakGor := int(snap.Gauges["runtime_goroutines_peak"])
		allocBytes := snap.Gauges["runtime_total_alloc_bytes"] - float64(before.TotalAlloc)

		coll, norm := 0.0, 0.0
		nColl, nNorm := 0, 0
		for id, v := range res.FinalReputations {
			switch cfg.Type(id) {
			case socialtrust.Colluder:
				coll += v
				nColl++
			case socialtrust.Normal:
				norm += v
				nNorm++
			}
		}
		ratio := 0.0
		if nColl > 0 && nNorm > 0 && norm > 0 {
			ratio = (coll / float64(nColl)) / (norm / float64(nNorm))
		}
		fmt.Printf("%-8d %-10d %-12v %-14.0f %-12.2f %-8s %-10d %-10s\n",
			n, cfg.NumColluders, wall.Round(time.Millisecond),
			float64(res.TotalRequests)/wall.Seconds(),
			ratio, fmt.Sprintf("%.1f%%", res.ColluderRequestShare()*100),
			peakGor, fmtBytes(allocBytes))
		if *churn || faults.Enabled() {
			fmt.Printf("         churn %d out / %d in (%d whitewash); %d ratings lost, %d partial drains, %d replica-recovered\n",
				res.Churn.Departures, res.Churn.Rejoins, res.Churn.WhitewashRejoins,
				res.RatingsLost, res.PartialDrains, res.ReplicaDrains)
		}
	}
	if *mDump != "" {
		obs.CaptureRuntime()
		var err error
		if *mDump == "json" {
			err = obs.WriteJSON(os.Stdout)
		} else {
			err = obs.WriteText(os.Stdout)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "stress: metrics dump: %v\n", err)
		}
	}
}

// parseSize parses a network size, accepting a k suffix (2k = 2000).
func parseSize(tok string) (int, error) {
	tok = strings.TrimSpace(tok)
	mult := 1
	if t := strings.TrimSuffix(tok, "k"); t != tok {
		tok, mult = t, 1000
	}
	n, err := strconv.Atoi(tok)
	return n * mult, err
}

// fmtBytes renders a byte count human-readably (base 1024).
func fmtBytes(b float64) string {
	units := []string{"B", "KiB", "MiB", "GiB", "TiB"}
	i := 0
	for b >= 1024 && i < len(units)-1 {
		b /= 1024
		i++
	}
	return fmt.Sprintf("%.1f%s", b, units[i])
}
