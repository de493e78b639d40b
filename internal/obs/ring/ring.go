// Package ring is the one bounded buffer behind the repository's recorders
// (the flight recorder in internal/obs/event, the span recorder in
// internal/obs/span, and the health sampler's window and transition log),
// plus the one JSONL codec their streams are written and read with.
//
// A Ring holds at most its capacity of items. When full, a push overwrites
// the oldest item and counts it as dropped, so a runaway source loses
// history rather than memory. Every push takes the next sequence number
// under the ring's lock, so numbers follow buffer order.
package ring

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Ring is a fixed-capacity FIFO of T. All methods are safe for concurrent
// use, and the reads (Len, Recorded, Dropped, Capacity, Snapshot, Drain)
// answer zero on a nil *Ring.
type Ring[T any] struct {
	stamp func(*T, uint64)

	mu      sync.Mutex
	buf     []T    // len(buf) == capacity, allocated up front
	start   int    // index of the oldest buffered item
	n       int    // buffered item count
	seq     uint64 // total items ever pushed
	dropped uint64 // items overwritten before being drained
}

// New returns an empty ring holding at most capacity items. When stamp is
// non-nil, each push calls it under the lock with the stored copy and that
// item's sequence number. New panics if capacity < 1.
func New[T any](capacity int, stamp func(*T, uint64)) *Ring[T] {
	if capacity < 1 {
		panic(fmt.Sprintf("ring: capacity %d < 1", capacity))
	}
	return &Ring[T]{stamp: stamp, buf: make([]T, capacity)}
}

// Push appends v, overwriting the oldest item when full, and returns v's
// sequence number (1 for the first push).
func (r *Ring[T]) Push(v T) uint64 {
	r.mu.Lock()
	r.seq++
	seq := r.seq
	i := r.start + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = v
	if r.stamp != nil {
		r.stamp(&r.buf[i], seq)
	}
	if r.n < len(r.buf) {
		r.n++
	} else { // full: slot i held the oldest item
		r.dropped++
		if r.start = i + 1; r.start == len(r.buf) {
			r.start = 0
		}
	}
	r.mu.Unlock()
	return seq
}

// copyOut returns the buffered items oldest first. Callers hold r.mu.
func (r *Ring[T]) copyOut() []T {
	out := make([]T, r.n)
	k := copy(out, r.buf[r.start:min(r.start+r.n, len(r.buf))])
	copy(out[k:], r.buf[:r.n-k])
	return out
}

// Snapshot copies out the buffered items, oldest first, and keeps them.
func (r *Ring[T]) Snapshot() []T {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.copyOut()
}

// Drain copies out the buffered items, oldest first, and empties the ring.
// Sequence numbers keep rising across drains.
func (r *Ring[T]) Drain() []T {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.copyOut()
	r.start, r.n = 0, 0
	return out
}

// AdvanceSeq raises the sequence counter to at least n, so the next push
// gets n+1. A lower n is ignored.
func (r *Ring[T]) AdvanceSeq(n uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq = max(r.seq, n)
}

// Len returns the number of buffered items.
func (r *Ring[T]) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Recorded returns the sequence counter: every item ever pushed, plus any
// AdvanceSeq jump.
func (r *Ring[T]) Recorded() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Dropped returns the number of items overwritten before being drained.
func (r *Ring[T]) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Capacity returns the most items the ring holds.
func (r *Ring[T]) Capacity() int {
	if r == nil {
		return 0
	}
	return len(r.buf)
}

// WriteJSONL writes items one JSON object per line.
func WriteJSONL[T any](w io.Writer, items []T) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw) // Encode appends the newline
	for i := range items {
		if err := enc.Encode(&items[i]); err != nil {
			return fmt.Errorf("jsonl: encode line %d: %w", i+1, err)
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a stream written by WriteJSONL. Blank lines are skipped;
// a malformed line is an error carrying its line number.
func ReadJSONL[T any](r io.Reader) ([]T, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var out []T
	for line := 1; sc.Scan(); line++ {
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var v T
		if err := json.Unmarshal(b, &v); err != nil {
			return nil, fmt.Errorf("jsonl: line %d: %w", line, err)
		}
		out = append(out, v)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("jsonl: read: %w", err)
	}
	return out, nil
}
