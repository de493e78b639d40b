// Package audit turns the flight recorder's decision-event stream
// (internal/obs/event) into detection-quality forensics. The simulator
// knows which nodes are colluders and which directed pairs carry collusion
// ratings — the ground truth the paper's Section 5 evaluation is scored
// against — so instead of eyeballing aggregate counters, the filter's
// B1–B4 firings can be joined against that truth and scored as
// per-behavior, per-cycle precision/recall/F1.
//
// The package has three parts:
//
//   - GroundTruth, the serialized truth of one simulation run (node roles
//     plus the directed collusion rating edges);
//   - Score, the forensics pass joining FilterDecision events against a
//     GroundTruth into a Report;
//   - WriteDir/LoadDir, the on-disk audit-directory format shared by
//     sim.Config.AuditDir and cmd/socialtrust-audit (ground_truth.json
//     plus one JSONL stream per event kind).
package audit

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"socialtrust/internal/fault"
	"socialtrust/internal/obs/event"
	"socialtrust/internal/obs/ring"
	"socialtrust/internal/obs/span"
)

// TruthEdge is one directed collusion rating edge: From floods To with
// ratings (positive boosts unless Negative, which marks a slander edge).
type TruthEdge struct {
	From     int  `json:"from"`
	To       int  `json:"to"`
	Negative bool `json:"negative,omitempty"`
}

// GroundTruth is the serialized truth of one simulation run.
type GroundTruth struct {
	NumNodes int    `json:"num_nodes"`
	Model    string `json:"model"`  // collusion model (PCM/MCM/MMM/none)
	Engine   string `json:"engine"` // underlying reputation engine
	Seed     uint64 `json:"seed"`

	Pretrusted []int `json:"pretrusted"`
	Colluders  []int `json:"colluders"`
	// CompromisedPretrusted lists pretrusted nodes wired into the
	// collusion; SlanderVictims the normal peers targeted by negative
	// collusion. Both empty in the paper's base setups.
	CompromisedPretrusted []int `json:"compromised_pretrusted,omitempty"`
	SlanderVictims        []int `json:"slander_victims,omitempty"`

	// Edges are the directed collusion rating edges (one per direction for
	// pair-wise and MMM back-rating structures).
	Edges []TruthEdge `json:"edges"`
}

// File names inside an audit directory.
const (
	GroundTruthFile = "ground_truth.json"
	DecisionsFile   = "filter_decisions.jsonl"
	CyclesFile      = "cycle_series.jsonl"
	ManagerFile     = "manager_events.jsonl"
	// HealthFile holds watchdog status transitions from the health sampler
	// (internal/obs/health). Health events come from an asynchronous sampler
	// goroutine, so they live in their own file: the deterministic streams
	// above stay byte-comparable between health-on and health-off runs.
	HealthFile = "health_events.jsonl"
	// FaultsFile holds the fault plan's injected-event log for runs under
	// fault injection (absent otherwise). Same seed ⇒ byte-identical file —
	// the golden determinism artifact.
	FaultsFile = "fault_events.jsonl"
	// TraceFile holds the interval span stream of a traced run (absent when
	// tracing was off), one span per line; ChromeTraceFile is the same trace
	// in Chrome trace-event JSON, loadable in Perfetto. Both sit next to the
	// event streams when sim.Config.TraceDir points at the audit dir.
	TraceFile       = "trace_spans.jsonl"
	ChromeTraceFile = "trace_chrome.json"
)

// WriteTrace writes a traced run's span stream (TraceFile) and its Chrome
// trace-event export (ChromeTraceFile) into dir, creating it if needed.
func WriteTrace(dir string, spans []span.Span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	if err := writeJSONL(dir, TraceFile, spans); err != nil {
		return err
	}
	cf, err := os.Create(filepath.Join(dir, ChromeTraceFile))
	if err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	werr := span.WriteChromeTrace(cf, spans)
	cerr := cf.Close()
	if werr != nil {
		return fmt.Errorf("audit: write %s: %w", ChromeTraceFile, werr)
	}
	if cerr != nil {
		return fmt.Errorf("audit: close %s: %w", ChromeTraceFile, cerr)
	}
	return nil
}

// LoadTrace reads the span stream of an audit (or trace) directory. A
// missing file loads as an empty stream (the run was not traced).
func LoadTrace(dir string) ([]span.Span, error) { return loadJSONL[span.Span](dir, TraceFile) }

// WriteFaultEvents writes a fault plan's injected-event log alongside the
// audit streams, one JSON object per line in injection order.
func WriteFaultEvents(dir string, events []fault.Event) error {
	return writeJSONL(dir, FaultsFile, events)
}

// LoadFaultEvents reads the injected-event log of an audit directory.
// A missing file loads as an empty log (the run injected no faults).
func LoadFaultEvents(dir string) ([]fault.Event, error) {
	return loadJSONL[fault.Event](dir, FaultsFile)
}

// WriteDir writes one run's audit output: the ground truth and the event
// stream split into one JSONL file per event kind. The directory is
// created if needed; existing files are truncated. Every per-kind file is
// always written (possibly empty) so consumers can rely on the layout.
func WriteDir(dir string, gt GroundTruth, events []event.Event) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	gtJSON, err := json.MarshalIndent(gt, "", "  ")
	if err != nil {
		return fmt.Errorf("audit: marshal ground truth: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, GroundTruthFile), append(gtJSON, '\n'), 0o644); err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	var decisions, cycles, managers, health []event.Event
	for _, e := range events {
		switch {
		case e.Filter != nil:
			decisions = append(decisions, e)
		case e.Cycle != nil:
			cycles = append(cycles, e)
		case e.Manager != nil:
			managers = append(managers, e)
		case e.Health != nil:
			health = append(health, e)
		}
	}
	for _, part := range []struct {
		name   string
		events []event.Event
	}{
		{DecisionsFile, decisions},
		{CyclesFile, cycles},
		{ManagerFile, managers},
		{HealthFile, health},
	} {
		if err := writeJSONL(dir, part.name, part.events); err != nil {
			return err
		}
	}
	return nil
}

// LoadDir reads an audit directory written by WriteDir: the ground truth
// (required) and every present JSONL event stream, merged back into one
// sequence-ordered slice. Missing JSONL files load as empty streams.
func LoadDir(dir string) (GroundTruth, []event.Event, error) {
	var gt GroundTruth
	b, err := os.ReadFile(filepath.Join(dir, GroundTruthFile))
	if err != nil {
		return gt, nil, fmt.Errorf("audit: %w", err)
	}
	if err := json.Unmarshal(b, &gt); err != nil {
		return gt, nil, fmt.Errorf("audit: parse %s: %w", GroundTruthFile, err)
	}
	var events []event.Event
	for _, name := range []string{DecisionsFile, CyclesFile, ManagerFile, HealthFile} {
		part, err := loadJSONL[event.Event](dir, name)
		if err != nil {
			return gt, nil, err
		}
		events = append(events, part...)
	}
	sort.SliceStable(events, func(a, b int) bool { return events[a].Seq < events[b].Seq })
	return gt, events, nil
}

// writeJSONL writes items one JSON object per line to dir/name, truncating
// any existing file.
func writeJSONL[T any](dir, name string, items []T) error {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	werr := ring.WriteJSONL(f, items)
	cerr := f.Close()
	if werr != nil {
		return fmt.Errorf("audit: write %s: %w", name, werr)
	}
	if cerr != nil {
		return fmt.Errorf("audit: close %s: %w", name, cerr)
	}
	return nil
}

// loadJSONL reads the JSONL stream dir/name. A missing file loads as an
// empty stream.
func loadJSONL[T any](dir, name string) ([]T, error) {
	f, err := os.Open(filepath.Join(dir, name))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("audit: %w", err)
	}
	defer f.Close()
	items, err := ring.ReadJSONL[T](f)
	if err != nil {
		return nil, fmt.Errorf("audit: read %s: %w", name, err)
	}
	return items, nil
}
