package span

import (
	"encoding/json"
	"fmt"
	"io"

	"socialtrust/internal/obs/ring"
)

// WriteJSONL writes spans one JSON object per line — the trace artifact
// (trace_spans.jsonl) persisted into the audit dir next to the event
// streams.
func WriteJSONL(w io.Writer, spans []Span) error { return ring.WriteJSONL(w, spans) }

// ReadJSONL parses a JSONL span stream written by WriteJSONL. Blank lines
// are skipped; a malformed line is an error carrying its line number.
func ReadJSONL(r io.Reader) ([]Span, error) { return ring.ReadJSONL[Span](r) }

// chromeEvent is one Chrome trace-event "complete" record (ph "X"): the
// schema chrome://tracing and Perfetto load directly. The thread ID carries
// the trace (interval) number, so each interval renders as its own row.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur"`
	PID  int            `json:"pid"`
	TID  uint64         `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object trace container format.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace exports spans as a Chrome trace-event JSON file loadable
// in Perfetto (ui.perfetto.dev) or chrome://tracing; one row per interval.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		cat := s.Phase
		if cat == "" {
			cat = "span"
		}
		args := map[string]any{"id": s.ID}
		if s.Parent != 0 {
			args["parent"] = s.Parent
		}
		for _, a := range s.Attrs {
			if a.Str != "" {
				args[a.Key] = a.Str
			} else {
				args[a.Key] = a.Int
			}
		}
		events = append(events, chromeEvent{
			Name: s.Name,
			Cat:  cat,
			Ph:   "X",
			TS:   s.StartUS,
			Dur:  s.DurUS,
			PID:  1,
			TID:  s.Trace,
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"}); err != nil {
		return fmt.Errorf("span: chrome trace: %w", err)
	}
	return nil
}
