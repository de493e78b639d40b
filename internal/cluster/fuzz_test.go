package cluster

import (
	"bytes"
	"testing"
)

// FuzzClusterFrameDecode is the never-panic contract for the wire decoder:
// whatever bytes arrive on a cluster socket, DecodeFrames either yields
// CRC-verified payloads or reports ErrCorruptFrame, and every payload it
// yields must survive ParsePayload — the exact code path a worker (or the
// client's reader) runs on a hostile or damaged peer.
func FuzzClusterFrameDecode(f *testing.F) {
	payloads, stream := testFrames()
	f.Add(stream)
	for _, p := range payloads {
		f.Add(finishFrame(append(beginFrame(nil), p...)))
	}
	// Torn and corrupted variants steer the fuzzer at the interesting edges.
	f.Add(stream[:len(stream)-3])
	mut := append([]byte(nil), stream...)
	mut[frameHeaderLen+1] ^= 0x40
	f.Add(mut)
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})
	f.Add(finishFrame(retiredSubmit()))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, valid, err := DecodeFrames(bytes.NewReader(data))
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid prefix %d outside [0, %d]", valid, len(data))
		}
		if err == nil && valid != int64(len(data)) {
			t.Fatalf("clean decode consumed %d of %d bytes", valid, len(data))
		}
		for _, p := range got {
			_ = ParsePayload(p) // must not panic; errors are fine
		}
	})
}
