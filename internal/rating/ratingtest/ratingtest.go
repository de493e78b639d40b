// Package ratingtest holds rating workloads that the tests and benchmarks
// of several packages share.
package ratingtest

import (
	"math/rand/v2"

	"socialtrust/internal/rating"
)

// BulkInterval draws one bulk-cluster-shaped interval over nodes peers from
// a fixed seed: each peer rates 4 partners 40 times in all (a fifth of the
// ratings negative, categories uniform over 16), 50 couples add 120 ratings
// each way, and the trace is shuffled as the shards receive it and
// sequenced from 1. At 10k nodes that is 412k ratings over about 40k pairs.
func BulkInterval(nodes int) []rating.Rating {
	rng := rand.New(rand.NewPCG(1, 2))
	var trace []rating.Rating
	for i := 0; i < nodes; i++ {
		var partners [4]int
		for k := range partners {
			partners[k] = (i + 1 + rng.IntN(nodes-1)) % nodes
		}
		for k := 0; k < 40; k++ {
			v := 1.0
			if rng.Float64() < 0.2 {
				v = -1
			}
			trace = append(trace, rating.Rating{Rater: i, Ratee: partners[rng.IntN(4)], Value: v, Cycle: 3, Category: rng.IntN(16)})
		}
	}
	for c := 0; c < 50; c++ {
		a, p := 2*c, 2*c+1
		for k := 0; k < 120; k++ {
			trace = append(trace,
				rating.Rating{Rater: a, Ratee: p, Value: 1, Cycle: 3, Category: rng.IntN(16)},
				rating.Rating{Rater: p, Ratee: a, Value: 1, Cycle: 3, Category: rng.IntN(16)})
		}
	}
	rng.Shuffle(len(trace), func(a, b int) { trace[a], trace[b] = trace[b], trace[a] })
	for k := range trace {
		trace[k].Seq = uint64(k + 1)
	}
	return trace
}
