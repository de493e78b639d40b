// Distributed: SocialTrust deployed behind the paper's resource-manager
// overlay (Section 4.3). Ratings flow concurrently from many client
// goroutines to sharded manager mailboxes; at the end of each update
// interval the managers' shards are merged, the SocialTrust-wrapped engine
// computes the global reputations, and the fresh vector is published to
// answer every query.
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"sync"

	"socialtrust"
)

const (
	n        = 40
	managers = 4
)

func main() {
	g := socialtrust.NewGraph(n)
	tracker := socialtrust.NewTracker(n)
	sets := make([]socialtrust.InterestSet, n)
	// Honest peers 0..37 in a friendship ring with shared interests.
	for i := 0; i < 38; i++ {
		g.AddRelationship(socialtrust.NodeID(i), socialtrust.NodeID((i+1)%38),
			socialtrust.Relationship{Kind: socialtrust.Friendship})
		sets[i] = socialtrust.NewInterestSet(1, socialtrust.Category(2+i%4))
	}
	// Colluding pair 38, 39.
	for k := 0; k < 4; k++ {
		g.AddRelationship(38, 39, socialtrust.Relationship{Kind: socialtrust.Kinship})
	}
	g.AddRelationship(38, 0, socialtrust.Relationship{Kind: socialtrust.Friendship})
	g.AddRelationship(39, 19, socialtrust.Relationship{Kind: socialtrust.Friendship})
	sets[38] = socialtrust.NewInterestSet(30)
	sets[39] = socialtrust.NewInterestSet(31)

	engine := socialtrust.NewFilter(socialtrust.FilterConfig{NumNodes: n},
		g, sets, tracker, socialtrust.NewEBayEngine(n))
	overlay, err := socialtrust.NewManagerOverlay(n, managers, engine)
	if err != nil {
		panic(err)
	}
	defer overlay.Close()

	fmt.Printf("overlay: %d peers sharded across %d manager goroutines\n", n, managers)
	for interval := 0; interval < 4; interval++ {
		var wg sync.WaitGroup
		// Honest clients rate concurrently from their own goroutines.
		for i := 0; i < 38; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for _, j := range []int{(i + 1) % 38, (i + 37) % 38} {
					submit(overlay, g, i, j)
					submit(overlay, g, i, j)
				}
			}(i)
		}
		// The colluders spam from theirs.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 60; k++ {
				submit(overlay, g, 38, 39)
				submit(overlay, g, 39, 38)
			}
		}()
		wg.Wait()
		reps := overlay.EndInterval()
		fmt.Printf("interval %d: colluder reputations %.4f / %.4f, honest mean %.4f\n",
			interval+1, reps[38], reps[39], honestMean(reps))
	}

	fmt.Println()
	fmt.Printf("query through any manager: peer 38 -> %.4f, peer 5 -> %.4f\n",
		overlay.Reputation(38), overlay.Reputation(5))
	fmt.Println("the colluding pair's 60-ratings-per-interval spam was flagged by the")
	fmt.Println("SocialTrust filter inside the overlay's periodic global update.")
}

func submit(o *socialtrust.ManagerOverlay, g *socialtrust.Graph, i, j int) {
	if err := o.Submit(socialtrust.Rating{Rater: i, Ratee: j, Value: 1}); err != nil {
		panic(err)
	}
	g.RecordInteraction(socialtrust.NodeID(i), socialtrust.NodeID(j), 1)
}

func honestMean(reps []float64) float64 {
	sum := 0.0
	for i := 0; i < 38; i++ {
		sum += reps[i]
	}
	return sum / 38
}
