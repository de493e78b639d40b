package eigentrust

import (
	"math"
	"slices"
	"testing"

	"socialtrust/internal/rating"
)

// blocksConfig decodes a FuzzEngineBlocks header: 2–4 etBlock row blocks
// plus a ragged tail of 1 to etBlock−1 nodes, 1–4 workers, FullRecompute,
// a MaxIter of 1, 2 or 3 steps or the default (Stats then reports an early
// step's residual, the first step's included), and either uniform pretrust
// or a pretrusted set. The set holds nodes that
// rate often (0, 1 and n/2 are the first nodes of blocksNode clusters), so
// trust flows out of them, and nodes that break idle runs: one between the
// first two clusters, a pair straddling the first block boundary, and the
// last node.
func blocksConfig(h [3]byte) Config {
	n := (2+int(h[0])%3)*etBlock + 1 + int(h[1])%(etBlock-1)
	cfg := Config{NumNodes: n, Workers: 1 + int(h[2]>>1)%4, FullRecompute: h[2]&0x10 != 0, MaxIter: int(h[2]>>5) % 4}
	if h[2]&1 == 1 {
		cfg.Pretrusted = []int{0, 1, n / 64, etBlock - 1, etBlock, n / 2, n - 1}
	}
	return cfg
}

// blocksNode maps a fuzz byte to a node in one of 32 clusters of 8
// consecutive IDs spread evenly over the network, so the nodes that rate or
// are rated leave long idle runs between them, some crossing block
// boundaries.
func blocksNode(b byte, n int) int {
	return int(b%32)*n/32 + int(b/32)
}

// wantIdleRuns recomputes the idle runs from the engine's rows and pretrust
// by brute force: nodes with no positive sum issued or received, grouped
// into maximal runs of equal pretrust that stop at every etBlock boundary.
func wantIdleRuns(e *Engine) (runs []idleRun, blockIdle []int32) {
	n := e.cfg.NumNodes
	active := make([]bool, n)
	for i, row := range e.rows {
		for _, lt := range row {
			if lt.sum > 0 {
				active[i], active[lt.ratee] = true, true
			}
		}
	}
	for j := 0; j < n; j++ {
		if j%etBlock == 0 {
			blockIdle = append(blockIdle, int32(len(runs)))
		}
		if active[j] {
			continue
		}
		if k := len(runs) - 1; k >= 0 && runs[k].hi == int32(j) && j%etBlock != 0 && e.p[j] == e.p[j-1] {
			runs[k].hi++
		} else {
			runs = append(runs, idleRun{int32(j), int32(j + 1)})
		}
	}
	return runs, append(blockIdle, int32(len(runs)))
}

// FuzzEngineBlocks pins the multi-block power iteration, with its idle runs
// and its fused dangling sum, to the per-node reference iteration over
// etBlock partials (iterateOutlinks). The first three bytes are a
// blocksConfig header. Each op byte after them is one engine operation on
// its top three bits: 0xe0 resets the node the next byte names, 0xc0 moves
// the engine's state into a fresh engine through ExportState/ImportState,
// 0xa0 adds 1 to every positive pair (a value-only interval), 0x80 is an
// empty interval (quiet: it skips once converged), and anything lower is an
// interval of op&0x1f ratings, three bytes each (rater, ratee, value index
// into foldValues). After every op the trust vector and Stats must equal
// the reference's bit for bit, and the idle runs a brute-force recount.
func FuzzEngineBlocks(f *testing.F) {
	// Every op kind in turn: an interval that adds outlinks, among them
	// from the pretrusted nodes 0, 1 and n/2 (bytes 0, 32 and 16), a
	// value-only interval, quiet ones, a reset, an import, and an interval
	// whose sign flips remove outlinks.
	ops := []byte{
		0x08, 0, 1, 0, 32, 2, 0, 16, 33, 0, 1, 96, 0, 40, 41, 0, 41, 40, 0, 8, 100, 7, 31, 0, 0,
		0xa0, 0x80, 0x80,
		0xe0, 1,
		0xc0, 0x80,
		0x03, 0, 1, 1, 40, 41, 1, 200, 201, 0,
		0xa0, 0xc0, 0xe0, 40, 0x80,
	}
	// Stream 46 includes steps where adding a run's distance once per node
	// and adding it times the run length round apart, under MaxIter 2.
	for _, h := range [][3]byte{{0, 17, 0}, {1, 200, 1}, {2, 5, 0x13}, {0, 254, 0x07}, {2, 128, 0x12}, {1, 60, 0x20}, {0, 17, 0x40}, {2, 9, 0x42}, {0, 99, 0x62}} {
		f.Add(append(h[:], ops...))
		f.Add(append(h[:], lcgBytes(46, 200)...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		cfg := blocksConfig([3]byte(data[:3]))
		n := cfg.NumNodes
		e := New(cfg)
		ref := newMapFold()
		refT := slices.Clone(e.p)
		var refStats Stats
		for step, data := 0, data[3:]; len(data) > 0; step++ {
			op := data[0]
			data = data[1:]
			switch op & 0xe0 {
			case 0xe0:
				if len(data) == 0 {
					return
				}
				node := blocksNode(data[0], n)
				data = data[1:]
				e.ResetNode(node)
				ref.resetNode(node)
				refT, refStats = ref.iterate(e.cfg, e.p, refT, refStats)
			case 0xc0:
				st := e.ExportState()
				e = New(cfg)
				e.ImportState(st)
			default:
				var rs []rating.Rating
				switch op & 0xe0 {
				case 0xa0:
					rs = positivePairs(e)
				case 0x80:
				default:
					k := min(int(op&0x1f), len(data)/3)
					for i := 0; i < k; i++ {
						r := rating.Rating{Rater: blocksNode(data[3*i], n), Ratee: blocksNode(data[3*i+1], n),
							Value: foldValues[int(data[3*i+2])%len(foldValues)]}
						if r.Rater != r.Ratee {
							rs = append(rs, r)
						}
					}
					data = data[3*k:]
				}
				snap := rating.Snapshot{Ratings: rating.SnapshotOrder(rs)}
				e.Update(snap)
				ref.update(snap.Ratings)
				refT, refStats = ref.iterate(e.cfg, e.p, refT, refStats)
			}
			if e.Stats() != refStats {
				t.Fatalf("step %d (op %#x): Stats %+v, want %+v", step, op, e.Stats(), refStats)
			}
			for j := range refT {
				if math.Float64bits(e.t[j]) != math.Float64bits(refT[j]) {
					t.Fatalf("step %d (op %#x): t[%d] = %v, want %v", step, op, j, e.t[j], refT[j])
				}
			}
			if e.Stats().Updates > 0 {
				runs, blockIdle := wantIdleRuns(e)
				if !slices.Equal(e.csr.idle, runs) || !slices.Equal(e.csr.blockIdle, blockIdle) {
					t.Fatalf("step %d (op %#x): idle runs %v by block %v, want %v by block %v",
						step, op, e.csr.idle, e.csr.blockIdle, runs, blockIdle)
				}
			}
		}
	})
}
