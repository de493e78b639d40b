package ring

import (
	"slices"
	"strings"
	"testing"
)

type item struct {
	Seq uint64 `json:"seq"`
	V   int    `json:"v"`
}

func seqs(items []item) []uint64 {
	out := make([]uint64, len(items))
	for i, it := range items {
		out[i] = it.Seq
	}
	return out
}

// TestRing walks one ring through wraparound, a non-clearing Snapshot, a
// Drain, a refill that wraps from a drained start, and AdvanceSeq.
func TestRing(t *testing.T) {
	r := New(3, func(it *item, seq uint64) { it.Seq = seq })
	for v := 1; v <= 5; v++ {
		if seq := r.Push(item{V: v}); seq != uint64(v) {
			t.Fatalf("push %d returned seq %d", v, seq)
		}
	}
	if r.Len() != 3 || r.Dropped() != 2 || r.Recorded() != 5 || r.Capacity() != 3 {
		t.Fatalf("len %d dropped %d recorded %d cap %d, want 3 2 5 3",
			r.Len(), r.Dropped(), r.Recorded(), r.Capacity())
	}
	if got := seqs(r.Snapshot()); !slices.Equal(got, []uint64{3, 4, 5}) {
		t.Fatalf("Snapshot seqs = %v, want [3 4 5]", got)
	}
	drained := r.Drain()
	if got := seqs(drained); !slices.Equal(got, []uint64{3, 4, 5}) || drained[0].V != 3 {
		t.Fatalf("Drain = %+v, want seqs 3..5 holding values 3..5", drained)
	}
	if r.Len() != 0 || len(r.Snapshot()) != 0 {
		t.Fatal("ring not empty after Drain")
	}
	r.AdvanceSeq(10)
	r.AdvanceSeq(7) // lower: ignored
	for v := 0; v < 4; v++ {
		r.Push(item{V: v})
	}
	if got := seqs(r.Drain()); !slices.Equal(got, []uint64{12, 13, 14}) {
		t.Fatalf("after AdvanceSeq(10) and 4 pushes, Drain seqs = %v, want [12 13 14]", got)
	}
	if r.Dropped() != 3 {
		t.Fatalf("Dropped = %d, want 3", r.Dropped())
	}
}

func TestNilRingReads(t *testing.T) {
	var r *Ring[item]
	if r.Drain() != nil || r.Snapshot() != nil || r.Len() != 0 || r.Recorded() != 0 ||
		r.Dropped() != 0 || r.Capacity() != 0 {
		t.Fatal("nil ring read returned a non-zero value")
	}
}

func TestJSONL(t *testing.T) {
	in := []item{{Seq: 1, V: -2}, {Seq: 2, V: 7}}
	var sb strings.Builder
	if err := WriteJSONL(&sb, in); err != nil {
		t.Fatal(err)
	}
	if want := "{\"seq\":1,\"v\":-2}\n{\"seq\":2,\"v\":7}\n"; sb.String() != want {
		t.Fatalf("WriteJSONL wrote %q, want %q", sb.String(), want)
	}
	out, err := ReadJSONL[item](strings.NewReader("\n" + sb.String() + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0] != in[0] || out[1] != in[1] {
		t.Fatalf("round trip = %+v, want %+v", out, in)
	}
	_, err = ReadJSONL[item](strings.NewReader("{\"v\":1}\n\n{bogus\n"))
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("malformed third line: err = %v, want one naming line 3", err)
	}
}
