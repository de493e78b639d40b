package par

import (
	"sync/atomic"
	"testing"
)

// TestForBlocksRunsEachBlockOnce checks that every block index runs exactly
// once, and none when there are no blocks, for worker counts below, at and
// above the block count.
func TestForBlocksRunsEachBlockOnce(t *testing.T) {
	for _, nb := range []int{0, 1, 2, 7, 64} {
		for _, workers := range []int{-1, 0, 1, 2, 8, 100} {
			runs := make([]atomic.Int32, nb)
			ForBlocks(nb, workers, func(b int) { runs[b].Add(1) })
			for b := range runs {
				if n := runs[b].Load(); n != 1 {
					t.Fatalf("nb=%d workers=%d: block %d ran %d times", nb, workers, b, n)
				}
			}
		}
	}
}
