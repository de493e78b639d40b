package main

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// capped keeps the first n bytes written to it and discards the rest, so a
// runaway printer cannot exhaust memory before the test's deadline.
type capped struct {
	buf bytes.Buffer
	n   int
}

func (c *capped) Write(p []byte) (int, error) {
	if room := c.n - c.buf.Len(); room > 0 {
		c.buf.Write(p[:min(len(p), room)])
	}
	return len(p), nil
}

// TestCriticalPathsMalformedIDs feeds a span that reuses its ancestor's ID
// as both its own ID and its parent: the walk must end, printing the root
// once and not descending into the span that points back at it.
func TestCriticalPathsMalformedIDs(t *testing.T) {
	spans, err := loadSpans("testdata/ancestor_id.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	out := &capped{n: 1 << 16}
	done := make(chan struct{})
	go func() {
		defer close(done)
		printCriticalPaths(out, spans)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("critical-path walk did not finish")
	}
	got := out.buf.String()
	if strings.Count(got, "root") != 1 || strings.Contains(got, "loop") {
		t.Fatalf("critical paths =\n%s\nwant the root alone", got)
	}
}
