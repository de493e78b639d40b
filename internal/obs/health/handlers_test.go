package health

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func get(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr.Code, rr.Body.String()
}

func TestProbesNilSampler(t *testing.T) {
	h := Handler(nil, nil)
	for _, path := range []string{"/healthz", "/readyz", "/statusz"} {
		if code, _ := get(t, h, path); code != http.StatusServiceUnavailable {
			t.Fatalf("%s with nil sampler = %d, want 503", path, code)
		}
	}
}

func TestProbeTransitions(t *testing.T) {
	s := New(Config{})
	h := Handler(s, nil)

	tick(s, Sample{Shards: 4})
	if code, body := get(t, h, "/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("clean healthz = %d %q", code, body)
	}
	if code, _ := get(t, h, "/readyz"); code != http.StatusOK {
		t.Fatalf("clean readyz != 200")
	}

	// Degraded: live but not ready.
	tick(s, Sample{Shards: 4, ShardsDown: 1})
	if code, _ := get(t, h, "/healthz"); code != http.StatusOK {
		t.Fatalf("degraded healthz != 200 (liveness must survive degradation)")
	}
	if code, body := get(t, h, "/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "degraded") {
		t.Fatalf("degraded readyz = %d %q, want 503 degraded", code, body)
	}

	// Failing: both probes go down.
	tick(s, Sample{Shards: 4, ShardsDown: 4})
	if code, _ := get(t, h, "/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("failing healthz != 503")
	}
	if code, _ := get(t, h, "/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("failing readyz != 503")
	}
}

func TestStatuszPayload(t *testing.T) {
	s := New(Config{Interval: time.Second, SLOInterval: 2 * time.Second})
	tick(s, Sample{Shards: 4, MailboxDepth: 2})
	tick(s, Sample{Shards: 4, ShardsDown: 1, MailboxDepth: 3})
	code, body := get(t, Handler(s, nil), "/statusz")
	if code != http.StatusOK {
		t.Fatalf("statusz = %d", code)
	}
	var p StatusPayload
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatalf("statusz is not JSON: %v\n%s", err, body)
	}
	if p.Samples != 2 || len(p.Window) != 2 {
		t.Fatalf("payload samples = %d window %d, want 2/2", p.Samples, len(p.Window))
	}
	if p.SampleIntervalSeconds != 1 || p.SLOIntervalSeconds != 2 {
		t.Fatalf("payload cadence = %v/%v", p.SampleIntervalSeconds, p.SLOIntervalSeconds)
	}
	if len(p.Components) == 0 || len(p.Events) == 0 {
		t.Fatalf("payload missing components/events: %+v", p)
	}
	// Status round-trips as its string form.
	if !strings.Contains(body, `"overall": "degraded"`) {
		t.Fatalf("overall not serialized as string:\n%s", body)
	}
}

func TestHandlerFallsThroughToBase(t *testing.T) {
	base := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("metrics here"))
	})
	s := New(Config{})
	if code, body := get(t, Handler(s, base), "/metrics"); code != http.StatusOK || body != "metrics here" {
		t.Fatalf("base handler not reachable: %d %q", code, body)
	}
}
