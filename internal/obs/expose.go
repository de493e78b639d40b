package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// BucketSnapshot is one cumulative histogram bucket.
type BucketSnapshot struct {
	LE    string `json:"le"` // upper bound, "+Inf" for the last bucket
	Count int64  `json:"count"`
}

// HistogramSnapshot is a point-in-time view of one histogram.
type HistogramSnapshot struct {
	Count   int64            `json:"count"`
	Sum     float64          `json:"sum"`
	Buckets []BucketSnapshot `json:"buckets"`
}

// Snapshot is a point-in-time copy of every metric in a registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies the registry's current state. Histogram bucket counts are
// cumulative (Prometheus le semantics).
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{Count: h.Count(), Sum: h.Sum()}
		cum := int64(0)
		for i := range h.counts {
			cum += h.counts[i].Load()
			le := "+Inf"
			if i < len(h.bounds) {
				le = formatBound(h.bounds[i])
			}
			hs.Buckets = append(hs.Buckets, BucketSnapshot{LE: le, Count: cum})
		}
		s.Histograms[name] = hs
	}
	return s
}

// ReadSnapshot returns a snapshot of the Default registry.
func ReadSnapshot() Snapshot { return Default.Snapshot() }

func formatBound(b float64) string { return strconv.FormatFloat(b, 'g', -1, 64) }

// splitSeries separates a full series string into its base metric name and
// inner label list: `x_total{behavior="B1"}` → ("x_total", `behavior="B1"`).
func splitSeries(key string) (base, labels string) {
	if i := strings.IndexByte(key, '{'); i >= 0 && strings.HasSuffix(key, "}") {
		return key[:i], key[i+1 : len(key)-1]
	}
	return key, ""
}

func joinSeries(base, labels string) string {
	if labels == "" {
		return base
	}
	return base + "{" + labels + "}"
}

// splitLabelPairs splits an inner label list on the commas outside quoted
// values: `a="1",b="x,y"` → [`a="1"`, `b="x,y"`].
func splitLabelPairs(labels string) []string {
	var out []string
	quoted := false
	start := 0
	for i := 0; i < len(labels); i++ {
		switch labels[i] {
		case '"':
			quoted = !quoted
		case ',':
			if !quoted {
				out = append(out, labels[start:i])
				start = i + 1
			}
		}
	}
	return append(out, labels[start:])
}

// sortLabels orders a series' label pairs lexically so the exposition is
// deterministic regardless of the order Label composed them in.
func sortLabels(labels string) string {
	if !strings.Contains(labels, ",") {
		return labels
	}
	pairs := splitLabelPairs(labels)
	sort.Strings(pairs)
	return strings.Join(pairs, ",")
}

// WriteText writes the registry in the Prometheus text exposition format:
// families sorted by name and preceded by their # HELP (when registered with
// Help) and # TYPE lines, series within a family sorted by their — also
// sorted — label sets, so output is byte-deterministic.
func (r *Registry) WriteText(w io.Writer) error {
	s := r.Snapshot()
	help := r.helpSnapshot()
	type series struct{ key, labels string }
	kind := map[string]string{}
	families := map[string][]series{}
	collect := func(k, typ string) {
		base, labels := splitSeries(k)
		kind[base] = typ
		families[base] = append(families[base], series{key: k, labels: sortLabels(labels)})
	}
	for k := range s.Counters {
		collect(k, "counter")
	}
	for k := range s.Gauges {
		collect(k, "gauge")
	}
	for k := range s.Histograms {
		collect(k, "histogram")
	}
	bases := make([]string, 0, len(families))
	for base := range families {
		bases = append(bases, base)
	}
	sort.Strings(bases)
	for _, base := range bases {
		if h := help[base]; h != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", base, h); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, kind[base]); err != nil {
			return err
		}
		ss := families[base]
		sort.Slice(ss, func(i, j int) bool { return ss[i].labels < ss[j].labels })
		for _, sr := range ss {
			switch kind[base] {
			case "counter":
				if _, err := fmt.Fprintf(w, "%s %d\n", joinSeries(base, sr.labels), s.Counters[sr.key]); err != nil {
					return err
				}
			case "gauge":
				if _, err := fmt.Fprintf(w, "%s %g\n", joinSeries(base, sr.labels), s.Gauges[sr.key]); err != nil {
					return err
				}
			case "histogram":
				h := s.Histograms[sr.key]
				for _, b := range h.Buckets {
					le := `le="` + b.LE + `"`
					if sr.labels != "" {
						le = sr.labels + "," + le
					}
					if _, err := fmt.Fprintf(w, "%s_bucket{%s} %d\n", base, le, b.Count); err != nil {
						return err
					}
				}
				if _, err := fmt.Fprintf(w, "%s %g\n", joinSeries(base+"_sum", sr.labels), h.Sum); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s %d\n", joinSeries(base+"_count", sr.labels), h.Count); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// WriteJSON writes the registry snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WriteText writes the Default registry in Prometheus text format.
func WriteText(w io.Writer) error { return Default.WriteText(w) }

// WriteJSON writes the Default registry as JSON.
func WriteJSON(w io.Writer) error { return Default.WriteJSON(w) }

// Runtime gauges maintained by CaptureRuntime. The *_peak gauges are
// high-water marks across captures; ResetRuntimePeaks re-arms them for a new
// measurement window. Freshness follows whoever drives CaptureRuntime: every
// /metrics scrape captures first, and a running health sampler
// (internal/obs/health) refreshes them on its tick, so gauges are at most one
// sample interval stale while either is active.
var (
	gGoroutines     = G("runtime_goroutines")
	gGoroutinesPeak = G("runtime_goroutines_peak")
	gHeapAlloc      = G("runtime_heap_alloc_bytes")
	gHeapAllocPeak  = G("runtime_heap_alloc_bytes_peak")
	gTotalAlloc     = G("runtime_total_alloc_bytes")
	gNumGC          = G("runtime_gc_total")
	gRSS            = G("runtime_rss_bytes")
	gRSSPeak        = G("runtime_rss_peak_bytes")
	hGCPause        = H("runtime_gc_pause_seconds", GCPauseBuckets...)
)

// GCPauseBuckets are the bounds of runtime_gc_pause_seconds: stop-the-world
// pauses run from microseconds on an idle heap to tens of milliseconds under
// allocation pressure.
var GCPauseBuckets = []float64{
	1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1,
}

func init() {
	const cadence = "Refreshed by every /metrics scrape and each health-sampler tick (at most one sample interval stale while either runs)."
	Help("runtime_goroutines", "Goroutines at the last CaptureRuntime sample. "+cadence)
	Help("runtime_goroutines_peak", "Goroutine high-water mark across captures (ResetRuntimePeaks re-arms).")
	Help("runtime_heap_alloc_bytes", "Live heap bytes at the last sample. "+cadence)
	Help("runtime_heap_alloc_bytes_peak", "Live-heap high-water mark across captures.")
	Help("runtime_total_alloc_bytes", "Cumulative bytes allocated by the process. "+cadence)
	Help("runtime_gc_total", "Garbage collections completed. "+cadence)
	Help("runtime_rss_bytes", "Resident set size (VmRSS) at the last sample; 0 where /proc is unavailable. "+cadence)
	Help("runtime_rss_peak_bytes", "Peak resident set size (VmHWM) reported by the kernel; 0 where /proc is unavailable. "+cadence)
	Help("runtime_gc_pause_seconds", "Stop-the-world GC pause durations, fed from MemStats.PauseNs by CaptureRuntime. "+cadence)
}

// RuntimeStats is one sample of process-level runtime state.
type RuntimeStats struct {
	Goroutines int
	HeapAlloc  uint64 // live heap bytes
	TotalAlloc uint64 // cumulative allocated bytes
	NumGC      uint32
	RSS        uint64 // resident set size (VmRSS); 0 where /proc is unavailable
	RSSPeak    uint64 // kernel peak resident set (VmHWM); 0 where /proc is unavailable
}

// gcPauseMu guards the PauseNs cursor so concurrent CaptureRuntime callers
// (a /metrics scrape racing the health sampler) feed each pause exactly once.
var gcPauseMu sync.Mutex
var gcPauseSeen uint32

// feedGCPauses observes every GC pause completed since the previous capture
// into runtime_gc_pause_seconds. MemStats.PauseNs is a 256-entry circular
// buffer indexed by GC number; pauses older than the buffer are dropped (they
// were overwritten before any capture saw them).
func feedGCPauses(ms *runtime.MemStats) {
	gcPauseMu.Lock()
	defer gcPauseMu.Unlock()
	from := gcPauseSeen
	if ms.NumGC > 256 && from < ms.NumGC-256 {
		from = ms.NumGC - 256
	}
	for n := from; n < ms.NumGC; n++ {
		hGCPause.Observe(float64(ms.PauseNs[n%256]) / 1e9)
	}
	gcPauseSeen = ms.NumGC
}

// CaptureRuntime samples goroutine count, memory statistics and (on Linux)
// the kernel's resident-set numbers, updates the runtime_* gauges (including
// peaks and the GC-pause histogram) and returns the sample. Sampling is cheap
// enough (tens of µs) to call from a ticker during long runs; the health
// sampler (internal/obs/health) drives it on its tick so the gauges stay
// fresh without caller discipline.
func CaptureRuntime() RuntimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st := RuntimeStats{
		Goroutines: runtime.NumGoroutine(),
		HeapAlloc:  ms.HeapAlloc,
		TotalAlloc: ms.TotalAlloc,
		NumGC:      ms.NumGC,
	}
	st.RSS, st.RSSPeak = ProcRSS(os.Getpid())
	gGoroutines.Set(float64(st.Goroutines))
	gGoroutinesPeak.SetMax(float64(st.Goroutines))
	gHeapAlloc.Set(float64(st.HeapAlloc))
	gHeapAllocPeak.SetMax(float64(st.HeapAlloc))
	gTotalAlloc.Set(float64(st.TotalAlloc))
	gNumGC.Set(float64(st.NumGC))
	if st.RSS > 0 {
		gRSS.Set(float64(st.RSS))
	}
	if st.RSSPeak > 0 {
		gRSSPeak.SetMax(float64(st.RSSPeak))
	}
	feedGCPauses(&ms)
	return st
}

// ProcRSS reads a process's resident set size (VmRSS) and its peak (VmHWM)
// from /proc/<pid>/status, in bytes. Both are zero where procfs is missing
// or the process is gone.
func ProcRSS(pid int) (rss, peak uint64) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		var dst *uint64
		switch {
		case strings.HasPrefix(line, "VmRSS:"):
			dst = &rss
		case strings.HasPrefix(line, "VmHWM:"):
			dst = &peak
		default:
			continue
		}
		f := strings.Fields(line)
		if len(f) >= 2 {
			if kb, err := strconv.ParseUint(f[1], 10, 64); err == nil {
				*dst = kb * 1024
			}
		}
	}
	return rss, peak
}

// ResetRuntimePeaks zeroes the runtime high-water-mark gauges so the next
// CaptureRuntime starts a fresh measurement window. It leaves
// runtime_rss_peak_bytes alone: that gauge reports the kernel's VmHWM, which
// only writing "5" to /proc/self/clear_refs re-arms (stbench does so at the
// start of each round).
func ResetRuntimePeaks() {
	gGoroutinesPeak.Reset()
	gHeapAllocPeak.Reset()
}

// Handler returns an http.Handler exposing the Default registry:
//
//	/metrics       Prometheus text format
//	/metrics.json  JSON snapshot
//
// With pprofToo it also mounts the net/http/pprof endpoints under
// /debug/pprof/. Every scrape captures fresh runtime_* gauges first.
func Handler(pprofToo bool) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		CaptureRuntime()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WriteText(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		CaptureRuntime()
		w.Header().Set("Content-Type", "application/json")
		_ = WriteJSON(w)
	})
	if pprofToo {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// Serve starts an HTTP server for Handler on addr in a background goroutine
// and returns it (close with server.Close). It also enables recording: a
// metrics endpoint with recording off would only ever serve zeros.
func Serve(addr string, pprofToo bool) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	Enable()
	srv := &http.Server{Addr: ln.Addr().String(), Handler: Handler(pprofToo)}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			Logger().Error("obs: metrics server failed", "addr", addr, "err", err)
		}
	}()
	return srv, nil
}
