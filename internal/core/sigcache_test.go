package core

import (
	"slices"
	"testing"

	"socialtrust/internal/interest"
	"socialtrust/internal/obs"
	"socialtrust/internal/rating"
	"socialtrust/internal/reputation/ebay"
	"socialtrust/internal/socialgraph"
)

// refSigCache is the signal cache the per-rater rows replaced, kept as the
// reference FuzzSignalRows pins them against: one map entry per pair,
// served only at the rater closeness version it was stored under, and never
// dropped by a version bump.
type refSigCache map[rating.PairKey]refSigEntry

type refSigEntry struct {
	ver uint64
	sig pairSignals
}

func (c refSigCache) get(k rating.PairKey, ver uint64) (pairSignals, bool) {
	e, ok := c[k]
	if !ok || e.ver != ver {
		return pairSignals{}, false
	}
	return e.sig, true
}

func (c refSigCache) put(k rating.PairKey, ver uint64, sig pairSignals) {
	c[k] = refSigEntry{ver: ver, sig: sig}
}

// refComputeSignals is computeSignals over refSigCache, one pair at a time
// through the per-pair closeness path. It reports which pairs hit.
func refComputeSignals(s *SocialTrust, c refSigCache, pairs []rating.PairRun, out []pairSignals) []bool {
	hit := make([]bool, len(pairs))
	for i := range pairs {
		k := pairs[i].PairKey
		ver := s.closeVer[k.Rater]
		sig, ok := c.get(k, ver)
		if !ok {
			sig = pairSignals{
				closeness: s.graph.Closeness(socialgraph.NodeID(k.Rater), socialgraph.NodeID(k.Ratee), s.cfg.Closeness),
				similar:   interest.Similarity(s.sets[k.Rater], s.sets[k.Ratee]),
			}
			c.put(k, ver, sig)
		}
		out[i], hit[i] = sig, ok
	}
	return hit
}

// FuzzSignalRows drives random interval sequences through computeSignals
// and through the map cache it replaced, interleaved with graph mutations
// that bump closeness versions, poisoned entries stored in both caches,
// Reset and ImportState. Every pair must hit or miss in both and be served
// the same signals, and the hit counter must count the reference's hits.
//
// The input is a sequence of (op, arg) byte pairs:
//   - op%8 < 3: an interval of arg%16+1 ratings, each read from the next
//     two bytes as (rater, ratee);
//   - 3: a graph mutation chosen by arg%4 on the nodes in the next two
//     bytes — interaction, friendship, edge removal, interaction reset;
//   - 4: poison the pair in the next two bytes with sentinel signals;
//   - 5: Reset;
//   - 6: ImportState;
//   - 7: nothing.
func FuzzSignalRows(f *testing.F) {
	// The same interval twice: pure reuse.
	f.Add([]byte{0, 2, 1, 2, 1, 3, 5, 6, 0, 2, 1, 2, 1, 3, 5, 6})
	// Fill, poison a pair, bump its rater with an interaction next to it,
	// rate another of its pairs, then the poisoned one again: the bump must
	// have dropped the poison from both caches.
	f.Add([]byte{0, 1, 1, 2, 1, 3, 4, 0, 1, 2, 3, 0, 0, 1, 0, 0, 1, 4, 0, 1, 1, 2, 1, 3})
	// Poison a far rater's pair: both caches serve it after an unrelated
	// mutation.
	f.Add([]byte{0, 0, 12, 13, 4, 0, 12, 13, 3, 0, 1, 2, 0, 0, 12, 13})
	// Edge removal, interaction reset, Reset and ImportState between
	// intervals.
	f.Add([]byte{0, 3, 1, 2, 3, 4, 5, 6, 7, 8, 3, 2, 4, 0, 0, 3, 1, 2, 3, 4, 5, 6, 7, 8,
		3, 3, 0, 0, 0, 0, 1, 2, 5, 0, 0, 0, 1, 2, 6, 0, 0, 0, 1, 2})

	f.Fuzz(func(t *testing.T, data []byte) {
		defer obs.SetEnabled(obs.Enabled())
		obs.Enable()
		const n = 24
		g := socialgraph.New(n)
		sets := make([]interest.Set, n)
		for i := 0; i < n; i++ {
			g.AddRelationship(socialgraph.NodeID(i), socialgraph.NodeID((i+1)%n),
				socialgraph.Relationship{Kind: socialgraph.Friendship})
			sets[i] = interest.NewSet(interest.Category(i%3), interest.Category(i%7))
		}
		st := New(Config{NumNodes: n, Workers: 2, Closeness: socialgraph.ClosenessParams{MaxPathHops: 3}},
			g, sets, nil, ebay.New(n))
		ref := refSigCache{}
		poisons := 0
		node := func() (int, bool) {
			if len(data) == 0 {
				return 0, false
			}
			v := int(data[0]) % n
			data = data[1:]
			return v, true
		}
		for step := 0; len(data) >= 2; step++ {
			op, arg := data[0]%8, data[1]
			data = data[2:]
			switch {
			case op < 3:
				led := rating.NewLedger(n)
				for k := 0; k <= int(arg%16); k++ {
					i, ok1 := node()
					j, ok2 := node()
					if !ok1 || !ok2 {
						break
					}
					if i != j {
						led.Add(rating.Rating{Rater: i, Ratee: j, Value: 1}) //nolint:errcheck
					}
				}
				snap := led.EndInterval()
				st.adjustMu.Lock()
				st.syncGraph()
				pairs := slices.Clone(st.byRater(rating.PairRuns(snap.Ratings, nil)))
				rowHit := make([]bool, len(pairs))
				for x := range pairs {
					_, rowHit[x] = st.sigCache.get(pairs[x].PairKey, st.closeVer[pairs[x].Rater])
				}
				hits := mSigCacheHits.Value()
				got := make([]pairSignals, len(pairs))
				st.computeSignals(pairs, got)
				hits = mSigCacheHits.Value() - hits
				want := make([]pairSignals, len(pairs))
				refHit := refComputeSignals(st, ref, pairs, want)
				st.adjustMu.Unlock()
				refHits := 0
				for x := range pairs {
					if rowHit[x] != refHit[x] || got[x] != want[x] {
						t.Fatalf("step %d, pair %v: row hit %v served %+v; reference hit %v served %+v",
							step, pairs[x].PairKey, rowHit[x], got[x], refHit[x], want[x])
					}
					if refHit[x] {
						refHits++
					}
				}
				if hits != int64(refHits) {
					t.Fatalf("step %d: hit counter moved by %d, reference hit %d pairs", step, hits, refHits)
				}
			case op == 3:
				a, _ := node()
				b, _ := node()
				switch arg % 4 {
				case 0:
					if a != b {
						g.RecordInteraction(socialgraph.NodeID(a), socialgraph.NodeID(b), 1)
					}
				case 1:
					if a != b {
						g.AddRelationship(socialgraph.NodeID(a), socialgraph.NodeID(b),
							socialgraph.Relationship{Kind: socialgraph.Friendship})
					}
				case 2:
					g.RemoveNodeEdges(socialgraph.NodeID(a))
				case 3:
					g.ResetInteractions()
				}
			case op == 4:
				a, _ := node()
				b, _ := node()
				k := rating.PairKey{Rater: a, Ratee: b}
				poisons++
				sig := pairSignals{closeness: 1e30 * float64(poisons), similar: -1}
				st.sigCache.put(k, st.closeVer[a], sig)
				ref.put(k, st.closeVer[a], sig)
			case op == 5:
				st.Reset()
				clear(ref)
			case op == 6:
				st.ImportState(FilterState{})
				clear(ref)
			}
		}
	})
}

// TestVersionBumpEmptiesRow pins what the rows keep: entries accumulate
// while the rater's closeness version holds, and the first store after a
// bump empties the row, so it then holds only the interval's own entries.
func TestVersionBumpEmptiesRow(t *testing.T) {
	const n = 40
	g := socialgraph.New(n)
	sets := make([]interest.Set, n)
	for i := 0; i < n-1; i++ {
		g.AddRelationship(socialgraph.NodeID(i), socialgraph.NodeID(i+1),
			socialgraph.Relationship{Kind: socialgraph.Friendship})
	}
	for i := range sets {
		sets[i] = interest.NewSet(interest.Category(i % 5))
	}
	st := New(Config{NumNodes: n, Workers: 1, Closeness: socialgraph.ClosenessParams{MaxPathHops: 2}},
		g, sets, interest.NewTracker(n), ebay.New(n))
	interval := func(pairs ...[2]int) {
		led := rating.NewLedger(n)
		for _, p := range pairs {
			if err := led.Add(rating.Rating{Rater: p[0], Ratee: p[1], Value: 1}); err != nil {
				t.Fatal(err)
			}
		}
		st.Adjust(led.EndInterval())
	}
	ratees := func(rater int) []int {
		var out []int
		for _, e := range st.sigCache[rater].ents {
			out = append(out, e.ratee)
		}
		return out
	}

	interval([2]int{1, 3}, [2]int{1, 2}, [2]int{30, 31})
	ver1, ver30 := st.closeVer[1], st.closeVer[30]
	// Node 0 is one hop from rater 1 and 30 hops from rater 30.
	g.RecordInteraction(0, 1, 1)
	interval([2]int{1, 5}, [2]int{30, 32})

	if st.closeVer[1] == ver1 || st.closeVer[30] != ver30 {
		t.Fatalf("versions %d→%d (rater 1), %d→%d (rater 30); want only rater 1's bumped",
			ver1, st.closeVer[1], ver30, st.closeVer[30])
	}
	if got := ratees(1); !slices.Equal(got, []int{5}) || st.sigCache[1].ver != st.closeVer[1] {
		t.Fatalf("rater 1's row after a bump holds ratees %v at version %d, want [5] at %d",
			got, st.sigCache[1].ver, st.closeVer[1])
	}
	if got := ratees(30); !slices.Equal(got, []int{31, 32}) {
		t.Fatalf("rater 30's row holds ratees %v, want [31 32] kept in ratee order", got)
	}
}
