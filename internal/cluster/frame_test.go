package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"testing"

	"socialtrust/internal/manager"
	"socialtrust/internal/rating"
)

// testFrames builds a representative multi-frame stream: every payload shape
// the protocol sends, framed back to back the way a pipelined connection
// writes them.
func testFrames() ([][]byte, []byte) {
	var payloads [][]byte
	add := func(frame []byte) {
		payloads = append(payloads, append([]byte(nil), frame[frameHeaderLen:]...))
	}

	hello := finishFrame(appendHello(
		appendHeader(beginFrame(nil), opHello, 1, 0),
		helloInfo{version: protoVersion, numNodes: 64, replicated: true,
			shards: []uint32{0, 2}}))
	add(hello)

	rs := []rating.Rating{
		{Rater: 3, Ratee: 7, Value: 1, Cycle: 2, Category: 5, Seq: 41},
		{Rater: 9, Ratee: 3, Value: -1, Cycle: 2, Category: 1, Seq: 42},
	}
	submit := finishFrame(appendSubmit(appendHeader(beginFrame(nil), opSubmit, 2, 1), rs, nil))
	add(submit)

	mirrored := finishFrame(appendSubmit(appendHeader(beginFrame(nil), opSubmit, 3, 1), rs[:1], rs[1:]))
	add(mirrored)

	drainReply := appendReplyHeader(beginFrame(nil), opDrain, 4, 1, statusOK)
	drainReply = appendSnapshot(drainReply, rating.Snapshot{Ratings: rs, MaxSeq: 42})
	drainReply = appendBool(drainReply, false)
	drainReply = finishFrame(drainReply)
	add(drainReply)

	submitReply := appendReplyHeader(beginFrame(nil), opSubmit, 2, 1, statusOK)
	submitReply = appendSubmitReply(submitReply, 2, []error{nil, errors.New("node out of range")})
	submitReply = finishFrame(submitReply)
	add(submitReply)

	var stream []byte
	stream = append(stream, hello...)
	stream = append(stream, submit...)
	stream = append(stream, mirrored...)
	stream = append(stream, drainReply...)
	stream = append(stream, submitReply...)
	return payloads, stream
}

// retiredSubmit begins a frame holding a version-2 fault-mode submit: op 3
// with one rating and its fate byte, addressed to shard 0. Protocol
// version 3 retired the op.
func retiredSubmit() []byte {
	b := appendRatings(appendHeader(beginFrame(nil), 3, 5, 0), mkRatings(1, 0, 1))
	return append(b, 1) // fate byte: replica
}

// TestRetiredSubmitRefused checks that an op-3 payload no longer parses.
func TestRetiredSubmitRefused(t *testing.T) {
	payload := finishFrame(retiredSubmit())[frameHeaderLen:]
	if err := ParsePayload(payload); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("op-3 payload: %v, want ErrCorruptFrame", err)
	}
}

// TestSubmitReplyCountChecked checks that a submit reply accounting for a
// different number of ratings than were sent is refused as corrupt instead
// of reaching the overlay, which indexes the reply by the ratings it sent.
func TestSubmitReplyCountChecked(t *testing.T) {
	reply := func() *call {
		ca := &call{done: make(chan struct{})}
		ca.payload = appendSubmitReply([]byte{statusOK}, 3, []error{nil, nil, errors.New("node out of range")})
		close(ca.done)
		return ca
	}
	if errs, err := submitWait(reply(), 3, 0); err != nil || len(errs) != 3 || errs[2] == nil {
		t.Fatalf("matching reply: errs %v, err %v", errs, err)
	}
	for _, sent := range []int{2, 5} {
		if _, err := submitWait(reply(), sent, 0); !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("reply for 3 ratings after sending %d: %v, want ErrCorruptFrame", sent, err)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	payloads, stream := testFrames()
	got, valid, err := DecodeFrames(bytes.NewReader(stream))
	if err != nil {
		t.Fatalf("DecodeFrames on a clean stream: %v", err)
	}
	if valid != int64(len(stream)) {
		t.Fatalf("valid prefix %d, want %d", valid, len(stream))
	}
	if len(got) != len(payloads) {
		t.Fatalf("decoded %d payloads, want %d", len(got), len(payloads))
	}
	for i := range got {
		if !bytes.Equal(got[i], payloads[i]) {
			t.Errorf("payload %d mismatch", i)
		}
		if err := ParsePayload(got[i]); err != nil {
			t.Errorf("ParsePayload(%d): %v", i, err)
		}
	}
}

// TestFrameTruncationEveryOffset cuts the stream at every byte offset. The
// decoder must return exactly the fully-contained frames; a cut inside a
// frame is a torn stream and must report ErrCorruptFrame — never panic.
func TestFrameTruncationEveryOffset(t *testing.T) {
	payloads, stream := testFrames()
	boundaries := map[int]int{0: 0} // offset -> frames complete at that offset
	off := 0
	for i, p := range payloads {
		off += frameHeaderLen + len(p)
		boundaries[off] = i + 1
	}
	for cut := 0; cut <= len(stream); cut++ {
		got, valid, err := DecodeFrames(bytes.NewReader(stream[:cut]))
		wantFrames, clean := boundaries[cut]
		if clean {
			if err != nil {
				t.Fatalf("cut %d (frame boundary): unexpected error %v", cut, err)
			}
			if len(got) != wantFrames {
				t.Fatalf("cut %d: decoded %d frames, want %d", cut, len(got), wantFrames)
			}
			if valid != int64(cut) {
				t.Fatalf("cut %d: valid prefix %d", cut, valid)
			}
			continue
		}
		if err == nil || !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("cut %d (mid-frame): error %v, want ErrCorruptFrame", cut, err)
		}
		for i := range got {
			if !bytes.Equal(got[i], payloads[i]) {
				t.Fatalf("cut %d: decoded frame %d does not match the original", cut, i)
			}
		}
	}
}

// TestFrameCorruptionEveryByte flips each byte of the stream in turn. The
// checksum must reject the damaged frame (ErrCorruptFrame, no panic), and
// every frame decoded before the damage must be intact.
func TestFrameCorruptionEveryByte(t *testing.T) {
	payloads, stream := testFrames()
	for i := 0; i < len(stream); i++ {
		mut := append([]byte(nil), stream...)
		mut[i] ^= 0xFF
		got, _, err := DecodeFrames(bytes.NewReader(mut))
		if err == nil || !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("byte %d flipped: error %v, want ErrCorruptFrame", i, err)
		}
		if len(got) >= len(payloads) {
			t.Fatalf("byte %d flipped: all %d frames decoded despite corruption", i, len(got))
		}
		for j := range got {
			if !bytes.Equal(got[j], payloads[j]) {
				t.Fatalf("byte %d flipped: surviving frame %d corrupted silently", i, j)
			}
		}
	}
}

func TestFrameImplausibleLength(t *testing.T) {
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], maxFramePayload+1)
	if _, _, err := DecodeFrames(bytes.NewReader(hdr[:])); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("oversized length: %v, want ErrCorruptFrame", err)
	}
	binary.LittleEndian.PutUint32(hdr[0:4], 0)
	if _, _, err := DecodeFrames(bytes.NewReader(hdr[:])); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("zero length: %v, want ErrCorruptFrame", err)
	}
}

// TestParsePayloadTrailingBytes checks the strict-length contract: a payload
// with bytes no field accounts for is corrupt, not silently accepted.
func TestParsePayloadTrailingBytes(t *testing.T) {
	p := appendU64(appendHeader(nil, opMark, 7, 0), 3)
	if err := ParsePayload(p); err != nil {
		t.Fatalf("clean mark payload: %v", err)
	}
	if err := ParsePayload(append(p, 0)); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("trailing byte: %v, want ErrCorruptFrame", err)
	}
}

// TestSubmitReplyRoundTrip exercises the sparse error encoding both ways.
func TestSubmitReplyRoundTrip(t *testing.T) {
	errs := []error{nil, errors.New("a"), nil, errors.New("b")}
	b := appendSubmitReply(nil, len(errs), errs)
	w := &wire{b: b}
	n, got := parseSubmitReply(w)
	if err := w.done(); err != nil {
		t.Fatal(err)
	}
	if n != 4 || len(got) != 4 || got[0] != nil || got[2] != nil ||
		got[1].Error() != "a" || got[3].Error() != "b" {
		t.Fatalf("round trip mismatch: n=%d errs=%v", n, got)
	}

	b = appendSubmitReply(nil, 3, nil)
	w = &wire{b: b}
	n, got = parseSubmitReply(w)
	if err := w.done(); err != nil {
		t.Fatal(err)
	}
	if n != 3 || got != nil {
		t.Fatalf("nil errs round trip: n=%d errs=%v", n, got)
	}
}

// TestDrainReplyNodeRange checks that a drain reply is decoded against the
// overlay's node count. A rating naming a node outside it, such as ratee 99
// on an 8-node overlay, makes the frame corrupt. The drain then fails
// instead of handing the engine an index past its per-node arrays. A
// rating no ledger accepts — a NaN or infinite value, a self-rating — makes
// the frame corrupt too.
func TestDrainReplyNodeRange(t *testing.T) {
	const numNodes = 8
	good := rating.Rating{Rater: 3, Ratee: 7, Value: 1, Cycle: 2, Seq: 5}
	snap := func(rs ...rating.Rating) rating.Snapshot { return rating.Snapshot{Ratings: rs, MaxSeq: 5} }
	cases := []struct {
		name string
		ds   manager.DrainSnapshots
		ok   bool
	}{
		{"in range", manager.DrainSnapshots{Primary: snap(good), HasReplica: true, Replica: snap(good)}, true},
		{"ratee 99", manager.DrainSnapshots{Primary: snap(good, rating.Rating{Rater: 1, Ratee: 99, Value: 1})}, false},
		{"ratee numNodes", manager.DrainSnapshots{Primary: snap(rating.Rating{Rater: 1, Ratee: numNodes, Value: 1})}, false},
		{"replica rater -1", manager.DrainSnapshots{Primary: snap(good), HasReplica: true,
			Replica: snap(rating.Rating{Rater: -1, Ratee: 2, Value: -1})}, false},
		{"value NaN", manager.DrainSnapshots{Primary: snap(good, rating.Rating{Rater: 1, Ratee: 2, Value: math.NaN()})}, false},
		{"replica value +Inf", manager.DrainSnapshots{Primary: snap(good), HasReplica: true,
			Replica: snap(rating.Rating{Rater: 1, Ratee: 2, Value: math.Inf(1)})}, false},
		{"self-rating", manager.DrainSnapshots{Primary: snap(rating.Rating{Rater: 4, Ratee: 4, Value: 1})}, false},
	}
	for _, tc := range cases {
		w := &wire{b: appendDrainReply(nil, tc.ds)}
		ds := w.drainReply(numNodes)
		err := w.done()
		if !tc.ok {
			if !errors.Is(err, ErrCorruptFrame) {
				t.Errorf("%s: decode error %v, want ErrCorruptFrame", tc.name, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := rating.Snapshot{Ratings: []rating.Rating{good}, MaxSeq: 5}
		if !ds.HasReplica || !reflect.DeepEqual(ds.Primary, want) || !reflect.DeepEqual(ds.Replica, want) {
			t.Fatalf("%s: decoded %+v, want primary and replica %+v", tc.name, ds, want)
		}
	}
}

// TestBatchEncodeAllocatesOnce pins that a sub-batch encodes into a nil
// buffer with one allocation of its exact wire size, so a submit frame
// (and a drain reply, which encodes through appendRatings too) is not
// regrown once per rating.
func TestBatchEncodeAllocatesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	rs := make([]rating.Rating, 2000)
	for i := range rs {
		rs[i] = rating.Rating{Rater: i, Ratee: i + 1, Value: 1, Seq: uint64(i + 1)}
	}
	primary, mirror := rs[:1500], rs[1500:]
	for _, tc := range []struct {
		name   string
		encode func() []byte
		size   int
	}{
		{"ratings", func() []byte { return appendRatings(nil, rs) }, 4 + len(rs)*ratingWireLen},
		{"submit", func() []byte { return appendSubmit(nil, primary, mirror) }, 8 + len(rs)*ratingWireLen},
	} {
		if b := tc.encode(); len(b) != tc.size {
			t.Fatalf("%s: encoded %d bytes, want %d", tc.name, len(b), tc.size)
		}
		if allocs := testing.AllocsPerRun(10, func() { tc.encode() }); allocs != 1 {
			t.Errorf("%s: %.0f allocations per encode, want 1", tc.name, allocs)
		}
	}
}
