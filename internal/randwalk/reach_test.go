package randwalk

import (
	"context"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/graph"
)

// referenceReach is the reach construction invertWalks replaced, kept as
// the oracle: materialize every (target, start) pair of the stored walks,
// comparison-sort them, drop repeats.
func referenceReach(ix *Index) (off []int32, starts []graph.NodeID) {
	var pairs []int64
	for i, target := range ix.walks {
		if target >= 0 {
			start := i / (ix.R * ix.L)
			pairs = append(pairs, int64(target)<<32|int64(start))
		}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i] < pairs[j] })
	off = make([]int32, ix.n+1)
	starts = []graph.NodeID{}
	var prev int64 = -1
	for _, p := range pairs {
		if p == prev {
			continue
		}
		prev = p
		off[graph.NodeID(p>>32)+1]++
		starts = append(starts, graph.NodeID(p&0xffffffff))
	}
	for i := 0; i < ix.n; i++ {
		off[i+1] += off[i]
	}
	return off, starts
}

// TestBuildReachMatchesSortAndDedup drives the reach inversion over random walk
// arrays — start nodes with no entries at all, walks cut short by dead
// ends, a handful of hub targets that almost every walk repeats, and the
// empty index — and requires the CSR the comparison sort produced, in a
// reachStarts sized exactly to its entries.
func TestBuildReachMatchesSortAndDedup(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	shapes := []struct{ n, r, l, hubs int }{
		{0, 3, 4, 1},
		{1, 1, 1, 1},
		{7, 2, 3, 7},
		{64, 4, 6, 2},    // duplicate-heavy: two targets take every visit
		{500, 16, 6, 20}, // the server's R and L
		{300, 1, 9, 300},
	}
	for _, sh := range shapes {
		for round := 0; round < 5; round++ {
			ix := &Index{L: sh.l, R: sh.r, n: sh.n, walks: make([]graph.NodeID, sh.n*sh.r*sh.l)}
			for start := 0; start < sh.n; start++ {
				silent := rng.Intn(4) == 0 // a start whose walks all die at once
				for i := 0; i < sh.r; i++ {
					run := ix.walks[(start*sh.r+i)*sh.l:][:sh.l]
					fill := 0
					if !silent {
						fill = rng.Intn(sh.l + 1)
					}
					for j := range run {
						run[j] = -1
						if j < fill {
							run[j] = graph.NodeID(rng.Intn(sh.hubs))
						}
					}
				}
			}
			off, starts := ix.reach()
			wantOff, wantStarts := referenceReach(ix)
			if !slices.Equal(off, wantOff) {
				t.Fatalf("shape %+v round %d: reach offsets differ\n got  %v\n want %v", sh, round, off, wantOff)
			}
			if !slices.Equal(starts, wantStarts) {
				t.Fatalf("shape %+v round %d: reach starts differ\n got  %v\n want %v", sh, round, starts, wantStarts)
			}
			if cap(starts) != len(starts) {
				t.Fatalf("shape %+v round %d: reachStarts holds %d entries in %d slots", sh, round, len(starts), cap(starts))
			}
		}
	}
}

// TestBuildReachOnBuiltIndex checks the same equivalence on walks Build
// really sampled, at several worker counts.
func TestBuildReachOnBuiltIndex(t *testing.T) {
	g := randomGraph(7, 400, 1600)
	for _, workers := range []int{1, 3, 16} {
		ix, err := Build(context.Background(), g, Options{L: 5, R: 6, Seed: 7, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		off, starts := ix.reach()
		wantOff, wantStarts := referenceReach(ix)
		if !slices.Equal(off, wantOff) || !slices.Equal(starts, wantStarts) {
			t.Fatalf("workers=%d: reach CSR differs from sort-and-dedup", workers)
		}
	}
}
