package rcl

// Differential test pinning the arena-backed centrality kernel to the
// map-based mapCentrality oracle below. The two implementations share the
// BFS visit order, so they must agree bit-for-bit on every (candidate,
// group) pair — any divergence means the epoch-stamped pending set
// changed semantics, not just speed.

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/topics"
)

// mapCentrality computes the closeness centrality of candidate v for the
// topic node group (Definition 3): |V_g| / Σ_j distance(v, v_j). Distances
// are minimal directed hop counts bounded by maxHops; unreachable members
// are penalized with maxHops+1 so that candidates covering more of the
// group always win. A candidate that reaches no member has centrality
// |V_g|/(|V_g|·(maxHops+1)), the floor. It is the straightforward
// reading — a map for the pending set, graph.Traverser for the BFS — that
// the arena kernel must match.
func mapCentrality(tr *graph.Traverser, v graph.NodeID, group []graph.NodeID, maxHops int) float64 {
	if len(group) == 0 {
		return 0
	}
	pending := make(map[graph.NodeID]bool, len(group))
	for _, m := range group {
		pending[m] = true
	}
	totalDist := 0
	found := 0
	if pending[v] {
		delete(pending, v) // distance(v, v) = 0 contributes nothing
		found++
	}
	if len(pending) > 0 {
		tr.Forward(v, maxHops, func(n graph.NodeID, d int) bool {
			if pending[n] {
				delete(pending, n)
				totalDist += d
				found++
			}
			return len(pending) > 0
		})
	}
	totalDist += len(pending) * (maxHops + 1)
	if totalDist == 0 {
		// v is the only group member and is at distance zero from the
		// whole group; treat as maximal centrality.
		return float64(len(group))
	}
	return float64(len(group)) / float64(totalDist)
}

func TestCentralityMatchesArena(t *testing.T) {
	g, space, walks := goldenWorld(t)
	s, err := New(g, space, walks, Options{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	tr := graph.NewTraverser(g)
	sc := s.arena()
	rng := rand.New(rand.NewSource(41))
	checked := 0
	for ti := 0; ti < space.NumTopics(); ti++ {
		vt := space.Nodes(topics.TopicID(ti))
		if len(vt) == 0 {
			continue
		}
		for _, size := range []int{1, 2, len(vt)} {
			if size > len(vt) {
				continue
			}
			group := append([]graph.NodeID(nil), vt[:size]...)
			for trial := 0; trial < 4; trial++ {
				var v graph.NodeID
				if trial == 0 {
					v = group[0] // candidate inside the group
				} else {
					v = graph.NodeID(rng.Intn(g.NumNodes()))
				}
				for _, maxHops := range []int{1, 4, 8} {
					want := mapCentrality(tr, v, group, maxHops)
					got := s.centrality(v, group, maxHops, sc)
					if got != want {
						t.Fatalf("topic %d v=%d |group|=%d maxHops=%d: arena %v, map %v",
							ti, v, len(group), maxHops, got, want)
					}
					checked++
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no centrality pairs checked")
	}
	// Empty-group behavior must match too.
	if got, want := s.centrality(0, nil, 4, sc), mapCentrality(tr, 0, nil, 4); got != want {
		t.Fatalf("empty group: arena %v, map %v", got, want)
	}
}
