package main

import (
	"slices"

	"socialtrust/internal/interest"
	"socialtrust/internal/rating"
	"socialtrust/internal/xrand"
)

// workload is one input shape. Every input is drawn from the run's seed, so
// the same seed gives the same graph, interests, colluders, interval traces
// and queries.
type workload struct {
	name  string
	nodes int

	warmup    int // set-up intervals that fill the signal caches and the CSR
	intervals int // timed intervals per round

	raters    int     // nodes that rate each interval (a fixed active set)
	perRater  int     // ratings each active rater gives per interval
	partners  int     // established partners per active rater (0 = none)
	loyalty   float64 // share of ratings that go to an established partner
	couples   int     // PCM colluder couples, drawn from the active raters
	collusion int     // ratings each colluder gives its partner per interval

	batch       int  // ratings per SubmitBatch call
	queries     int  // closed-loop Query calls after each batch
	friendships int  // random friendships added before each interval
	wal         bool // in-process shards journal to per-shard WALs
	workers     int  // worker processes hosting the shards (0 = in-process)
}

// The pipeline shape every workload shares: the overlay's shard count, the
// random friendships grown per node, the interest categories, the interests
// per node, and the closeness path radius (the Eq. 4 fallback BFS).
const (
	numShards        = 16
	friendsPerNode   = 6
	numCategories    = 16
	interestsPerNode = 4
	closenessHops    = 3
)

// workloads are the benchmark's workloads at full size. The package comment
// records why each exists.
var workloads = map[string]workload{
	"dense": {
		name: "dense", nodes: 5000,
		warmup: 1, intervals: 4,
		raters: 5000, perRater: 4,
		couples: 50, collusion: 16,
		batch: 8192,
	},
	"steady": {
		name: "steady", nodes: 50000,
		warmup: 2, intervals: 6,
		raters: 1000, perRater: 4, partners: 4, loyalty: 0.9,
		couples: 25, collusion: 16,
		batch: 256, queries: 1024, friendships: 2, wal: true,
	},
	"bulk-cluster": {
		name: "bulk-cluster", nodes: 10000,
		warmup: 1, intervals: 6,
		raters: 10000, perRater: 40, partners: 4, loyalty: 1,
		couples: 50, collusion: 120,
		batch: 8192, workers: 2,
	},
}

// inputs are a workload's seed-derived inputs that do not change between
// intervals. Each interval's inputs are drawn by interval.
type inputs struct {
	w         workload
	root      *xrand.Stream // per-interval streams split from it
	edges     [][2]int
	interests [][]interest.Category
	active    []int   // active raters, ascending
	partners  [][]int // established partners of each active rater (by node)
	couples   [][2]int
	colluder  []bool
}

// newInputs draws a workload's static inputs from seed.
func newInputs(w workload, seed uint64) *inputs {
	root := xrand.New(seed).SplitString(w.name)
	in := &inputs{w: w, root: root}

	g := root.SplitString("graph")
	for i := 0; i < w.nodes; i++ {
		for d := 0; d < friendsPerNode; d++ {
			if j := g.Intn(w.nodes); j != i {
				in.edges = append(in.edges, [2]int{i, j})
			}
		}
	}

	pick := root.SplitString("roles")
	in.active = slices.Clone(pick.SampleWithout(w.nodes, w.raters, nil))
	// Colluders are active raters. The first of each couple draws its
	// interests from the low half of the category universe and its partner
	// from the high half, so a couple shares no interest (Ωs = 0): the
	// pair-wise collusion the paper's B3 targets.
	in.colluder = make([]bool, w.nodes)
	for c := 0; c < w.couples; c++ {
		a, b := in.active[2*c], in.active[2*c+1]
		in.couples = append(in.couples, [2]int{a, b})
		in.colluder[a], in.colluder[b] = true, true
	}
	slices.Sort(in.active)

	cats := root.SplitString("interests")
	in.interests = make([][]interest.Category, w.nodes)
	for i := range in.interests {
		in.interests[i] = distinctCategories(cats, interestsPerNode, 0, numCategories)
	}
	half := numCategories / 2
	for _, c := range in.couples {
		in.interests[c[0]] = distinctCategories(cats, interestsPerNode, 0, half)
		in.interests[c[1]] = distinctCategories(cats, interestsPerNode, half, numCategories-half)
	}

	// Established partners are other active nodes, so the active set is one
	// trading community that trust flows through. Each partner slot is a
	// random cycle through the active set, so every active node is also the
	// partner of exactly w.partners others: a colluder's honest inflow then
	// does not hinge on how many partners it happened to draw.
	if w.partners > 0 {
		ps := root.SplitString("partners")
		in.partners = make([][]int, w.nodes)
		order := slices.Clone(in.active)
		for k := 0; k < w.partners; k++ {
			ps.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
			for m, i := range order {
				in.partners[i] = append(in.partners[i], order[(m+1)%len(order)])
			}
		}
	}
	return in
}

// distinctCategories draws k distinct categories from [lo, lo+span).
func distinctCategories(rng *xrand.Stream, k, lo, span int) []interest.Category {
	out := make([]interest.Category, 0, k)
	for len(out) < k {
		c := interest.Category(lo + rng.Intn(span))
		dup := false
		for _, have := range out {
			dup = dup || have == c
		}
		if !dup {
			out = append(out, c)
		}
	}
	return out
}

// interval holds one interval's generated inputs.
type interval struct {
	trace       []rating.Rating
	queries     []int    // Query targets, w.queries per batch
	friendships [][2]int // edges added before the interval
}

// interval draws interval t's inputs (t counts warm-up intervals too).
// Ratings carry increasing sequence numbers starting after *seq.
func (in *inputs) interval(t int, seq *uint64, buf []rating.Rating) interval {
	w := in.w
	rng := in.root.Split(uint64(t) + 1)
	trace := buf[:0]
	for _, i := range in.active {
		for k := 0; k < w.perRater; k++ {
			var j int
			if w.partners > 0 && rng.Float64() < w.loyalty {
				j = in.partners[i][rng.Intn(w.partners)]
			} else if j = rng.Intn(w.nodes - 1); j >= i {
				j++
			}
			v := 1.0
			if rng.Float64() < 0.2 {
				v = -1
			}
			trace = append(trace, rating.Rating{Rater: i, Ratee: j, Value: v, Cycle: t, Category: rng.Intn(numCategories)})
		}
	}
	for _, c := range in.couples {
		for k := 0; k < w.collusion; k++ {
			trace = append(trace,
				rating.Rating{Rater: c[0], Ratee: c[1], Value: 1, Cycle: t, Category: rng.Intn(numCategories)},
				rating.Rating{Rater: c[1], Ratee: c[0], Value: 1, Cycle: t, Category: rng.Intn(numCategories)})
		}
	}
	rng.Shuffle(len(trace), func(a, b int) { trace[a], trace[b] = trace[b], trace[a] })
	for k := range trace {
		*seq++
		trace[k].Seq = *seq
	}
	iv := interval{trace: trace}
	if w.queries > 0 {
		batches := (len(trace) + w.batch - 1) / w.batch
		iv.queries = make([]int, batches*w.queries)
		for k := range iv.queries {
			iv.queries[k] = rng.Intn(w.nodes)
		}
	}
	for k := 0; k < w.friendships; k++ {
		i := rng.Intn(w.nodes)
		j := rng.Intn(w.nodes - 1)
		if j >= i {
			j++
		}
		iv.friendships = append(iv.friendships, [2]int{i, j})
	}
	return iv
}
