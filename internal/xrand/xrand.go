// Package xrand provides deterministic, splittable pseudo-random number
// streams for reproducible parallel simulation.
//
// The simulator runs many experiment repetitions and many per-node decision
// processes concurrently. If all of them shared one math/rand source, results
// would depend on goroutine scheduling. Instead, every logical actor derives
// its own Stream from a parent seed via a SplitMix64-style hash, so a given
// (seed, label) pair always yields the same sequence regardless of how the
// work is scheduled across CPUs.
package xrand

import (
	"math"
	"math/rand"
)

// Stream is a deterministic random stream. It wraps math/rand.Rand seeded by
// a well-mixed 64-bit state and adds the distribution helpers the simulator
// and trace generator need. A Stream is NOT safe for concurrent use; derive
// one Stream per goroutine with Split.
type Stream struct {
	rng  *rand.Rand
	src  *countingSource
	seed uint64
}

// countingSource wraps the math/rand source and counts how many times its
// state advances. math/rand's generator steps exactly once per Int63 or
// Uint64 call, so the count is a complete description of how far the stream
// has progressed from its seed — which is what lets durable snapshots record
// a stream as (seed, draws) and restore it bit-exactly with Discard.
type countingSource struct {
	src rand.Source64
	n   uint64
}

func (c *countingSource) Int63() int64 {
	c.n++
	return c.src.Int63()
}

func (c *countingSource) Uint64() uint64 {
	c.n++
	return c.src.Uint64()
}

func (c *countingSource) Seed(seed int64) {
	c.n = 0
	c.src.Seed(seed)
}

// New returns a Stream rooted at the given seed. Two Streams created with the
// same seed produce identical sequences.
func New(seed uint64) *Stream {
	mixed := mix(seed)
	src := &countingSource{src: rand.NewSource(int64(mixed)).(rand.Source64)}
	return &Stream{rng: rand.New(src), src: src, seed: seed}
}

// SourceDraws reports how many times the underlying generator state has
// advanced since the stream was created. Together with Seed it fully
// identifies the stream's position: New(Seed()) followed by
// Discard(SourceDraws()) reproduces this stream exactly.
func (s *Stream) SourceDraws() uint64 { return s.src.n }

// Discard advances the stream by n source draws without producing values,
// fast-forwarding a freshly seeded stream to a previously recorded position.
func (s *Stream) Discard(n uint64) {
	for i := uint64(0); i < n; i++ {
		s.src.src.Uint64()
	}
	s.src.n += n
}

// Split derives an independent child Stream identified by label. Children
// with distinct labels are statistically independent; the same (parent seed,
// label) always produces the same child.
func (s *Stream) Split(label uint64) *Stream {
	return New(mix(s.seed) ^ mix(label*0x9E3779B97F4A7C15+0x2545F4914F6CDD1D))
}

// SplitString derives a child Stream from a textual label, convenient for
// naming per-phase streams ("topology", "queries", ...).
func (s *Stream) SplitString(label string) *Stream {
	var h uint64 = 1469598103934665603 // FNV-1a offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return s.Split(h)
}

// Seed reports the seed this stream was rooted at.
func (s *Stream) Seed() uint64 { return s.seed }

// Float64 returns a uniform value in [0,1).
func (s *Stream) Float64() float64 { return s.rng.Float64() }

// Intn returns a uniform int in [0,n). It panics if n <= 0, matching
// math/rand semantics.
func (s *Stream) Intn(n int) int { return s.rng.Intn(n) }

// IntRange returns a uniform int in the inclusive range [lo,hi].
func (s *Stream) IntRange(lo, hi int) int {
	if hi < lo {
		panic("xrand: IntRange with hi < lo")
	}
	return lo + s.rng.Intn(hi-lo+1)
}

// FloatRange returns a uniform float64 in [lo,hi).
func (s *Stream) FloatRange(lo, hi float64) float64 {
	return lo + (hi-lo)*s.rng.Float64()
}

// Bool returns true with probability p.
func (s *Stream) Bool(p float64) bool { return s.rng.Float64() < p }

// Perm returns a pseudo-random permutation of [0,n).
func (s *Stream) Perm(n int) []int { return s.rng.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (s *Stream) Shuffle(n int, swap func(i, j int)) { s.rng.Shuffle(n, swap) }

// Pareto samples a Pareto (power-law) distributed value with minimum xm > 0
// and shape alpha > 0. The tail follows P(X > x) = (xm/x)^alpha, the
// heavy-tailed behavior the paper observes for product-category popularity.
func (s *Stream) Pareto(xm, alpha float64) float64 {
	if xm <= 0 || alpha <= 0 {
		panic("xrand: Pareto requires xm > 0 and alpha > 0")
	}
	u := s.rng.Float64()
	for u == 0 {
		u = s.rng.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Zipf samples ranks in [0,n) with probability proportional to
// 1/(rank+1)^exponent — the discrete power law used for interest-category
// popularity (paper Section 3.3, Figure 4(a)).
func (s *Stream) Zipf(n int, exponent float64) int {
	if n <= 0 {
		panic("xrand: Zipf requires n > 0")
	}
	// Inverse-CDF over the finite support; n is small (interest categories,
	// ranks), so a linear scan is cheaper than a precomputed alias table.
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), exponent)
	}
	u := s.rng.Float64() * total
	acc := 0.0
	for i := 0; i < n; i++ {
		acc += 1 / math.Pow(float64(i+1), exponent)
		if u < acc {
			return i
		}
	}
	return n - 1
}

// SampleWithout draws k distinct values uniformly from [0,n) excluding any
// value for which excluded returns true. It panics if fewer than k candidate
// values exist.
func (s *Stream) SampleWithout(n, k int, excluded func(int) bool) []int {
	candidates := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if excluded == nil || !excluded(i) {
			candidates = append(candidates, i)
		}
	}
	if len(candidates) < k {
		panic("xrand: SampleWithout has fewer candidates than k")
	}
	s.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	out := candidates[:k]
	return out
}

// mix is the SplitMix64 finalizer: a bijective avalanche hash over uint64.
func mix(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
