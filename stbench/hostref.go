package main

import (
	"math/rand/v2"
	"time"
)

// hostRef is a fixed reference kernel that shares no code with the program:
// three-hop breadth-first searches over a fixed random graph, the access
// pattern of the closeness kernel. Its time is printed with the environment
// so that a set of runs on a host that slowed down can be told apart from a
// slower program. The steal share does not show this: on the 2-vCPU host
// the benchmark was written on, steal stayed below 2% while dense's update
// time on unchanged code moved between 0.6 and 1.16 s within an hour, and
// the kernel's time moved with it (correlation 0.6–0.8 over 20-run sets).
type hostRef struct {
	offsets []int32 // CSR row starts, one per node plus one
	edges   []int32
	seen    []uint32 // epoch of the last search that reached each node
	epoch   uint32
	queue   []int32
	reached int // keeps the searches from being optimized away
}

const (
	refNodes   = 50000
	refDegree  = 12
	refSources = 2048
	refHops    = 3
)

func newHostRef() *hostRef {
	rng := rand.New(rand.NewPCG(1, 2))
	k := &hostRef{
		offsets: make([]int32, refNodes+1),
		edges:   make([]int32, refNodes*refDegree),
		seen:    make([]uint32, refNodes),
	}
	for i := range k.edges {
		k.edges[i] = int32(rng.IntN(refNodes))
	}
	for i := range k.offsets {
		k.offsets[i] = int32(i * refDegree)
	}
	return k
}

// time runs the kernel once and returns its wall time in milliseconds.
func (k *hostRef) time() float64 {
	start := time.Now()
	for src := 0; src < refSources; src++ {
		k.epoch++
		k.queue = append(k.queue[:0], int32(src*(refNodes/refSources)))
		k.seen[k.queue[0]] = k.epoch
		lo := 0
		for hop := 0; hop < refHops; hop++ {
			hi := len(k.queue)
			for ; lo < hi; lo++ {
				u := k.queue[lo]
				for _, v := range k.edges[k.offsets[u]:k.offsets[u+1]] {
					if k.seen[v] != k.epoch {
						k.seen[v] = k.epoch
						k.queue = append(k.queue, v)
					}
				}
			}
		}
		k.reached += len(k.queue)
	}
	return float64(time.Since(start).Nanoseconds()) / 1e6
}
