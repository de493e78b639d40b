// Package par holds the block fan-out the interval engines share: block
// indices handed to a bounded pool of goroutines through one shared counter.
package par

import (
	"sync"
	"sync/atomic"
)

// ForBlocks runs fn(b) for every block index in [0, nb), fanned over at most
// min(workers, nb) goroutines pulling indices from a shared counter; with
// one worker or one block it is a plain loop with no goroutines. Which
// goroutine runs a block is up to the scheduler, so results stay the same
// at every worker count only when block b writes nothing but its own slot.
func ForBlocks(nb, workers int, fn func(b int)) {
	workers = min(workers, nb)
	if workers <= 1 {
		for b := 0; b < nb; b++ {
			fn(b)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				b := int(next.Add(1)) - 1
				if b >= nb {
					return
				}
				fn(b)
			}
		}()
	}
	wg.Wait()
}
