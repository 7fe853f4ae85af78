package rcl

// Differential test pinning the arena-backed centrality kernel to the
// exported map-based Centrality. The two implementations share the BFS
// visit order, so they must agree bit-for-bit on every (candidate, group)
// pair — any divergence means the epoch-stamped pending set changed
// semantics, not just speed.

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/topics"
)

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
					want := Centrality(tr, v, group, maxHops)
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
	if got, want := s.centrality(0, nil, 4, sc), Centrality(tr, 0, nil, 4); got != want {
		t.Fatalf("empty group: arena %v, map %v", got, want)
	}
}
