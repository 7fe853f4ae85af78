package randwalk

import (
	"context"
	"maps"
	"slices"

	"repro/internal/graph"
)

// PatchStats reports what a Patch did.
type PatchStats struct {
	// Resampled is the number of start nodes whose walks were sampled
	// again: every node when Rebuilt.
	Resampled int
	// Rebuilt reports that Patch could not be exact cheaply and ran Build.
	Rebuilt bool
}

// Patch returns exactly the index Build(ctx, newG, opt) returns, given
// old = the index of oldG, by re-sampling only the start nodes an edge
// change can have reached (§4.4's "refresh", made proportional to the
// change). Walks are unweighted, so only a node whose out-neighbour list
// differs between the two graphs alters a walk, and only a walk that
// visits it: every node a walk visits is in its stored first-visit list,
// so the start nodes to re-sample are ReachL(u) ∪ {u} of the changed
// nodes u. Each of them draws again from its own seeded stream, which is
// what a full build would do; every other start node would draw the same
// numbers over the same neighbour lists, so its walks are copied. The H
// contributions of the replaced walks are retired from the support counts
// and the new ones added (see support), H is re-derived from the counts,
// and the reach lists drop and regain the re-sampled starts (patchReach). old is left
// untouched, and returned as is when no neighbour list changed (a batch of
// weight updates).
//
// When exactness would need the whole build anyway — old has no support
// counts (Adopt), a different node count, or other L, R or seed — Patch
// runs Build and says so in its stats.
func Patch(ctx context.Context, old *Index, oldG, newG *graph.Graph, opt Options) (*Index, PatchStats, error) {
	if err := opt.fill(); err != nil {
		return nil, PatchStats{}, err
	}
	n := newG.NumNodes()
	if old.sup == nil || old.n != n || oldG.NumNodes() != n || old.L != opt.L || old.R != opt.R || old.sup.seed != opt.Seed {
		ix, err := Build(ctx, newG, opt)
		return ix, PatchStats{Resampled: n, Rebuilt: true}, err
	}

	dirty := make([]bool, n)
	for u := 0; u < n; u++ {
		if u%256 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, PatchStats{}, err
			}
		}
		was, _ := oldG.OutNeighbors(graph.NodeID(u))
		is, _ := newG.OutNeighbors(graph.NodeID(u))
		if !slices.Equal(was, is) {
			dirty[u] = true
			for _, start := range old.ReachL(graph.NodeID(u)) {
				dirty[start] = true
			}
		}
	}
	if !slices.Contains(dirty, true) {
		return old, PatchStats{}, nil
	}

	ix := &Index{L: old.L, R: old.R, n: n, walks: slices.Clone(old.walks)}
	ix.sup = &support{seed: opt.Seed, one: slices.Clone(old.sup.one), more: maps.Clone(old.sup.more)}
	s := newSampler(n)
	perStart := ix.R * ix.L
	var stats PatchStats
	for w, hit := range dirty {
		if !hit {
			continue
		}
		if stats.Resampled%256 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, PatchStats{}, err
			}
		}
		stats.Resampled++
		mine := ix.walks[w*perStart : (w+1)*perStart]
		if !ix.retireStored(mine) {
			s.sample(oldG, opt, w, nil, ix.sup, ^uint32(0))
		}
		for i := range mine {
			mine[i] = -1
		}
		s.sample(newG, opt, w, ix.walks, ix.sup, 1)
	}
	ix.fillH()
	ix.patchReach(old, dirty)
	return ix, stats, nil
}

// patchReach derives the reach lists from old's instead of inverting every
// walk again: each target keeps its old starts except the re-sampled ones,
// merged with the re-sampled starts whose new walks visit it. Both runs
// ascend and share no start, so the merge is one pass over the old CSR.
func (ix *Index) patchReach(old *Index, resampled []bool) {
	addOff, adds := ix.invertWalks(resampled)
	kept := 0
	for _, start := range old.reachStarts {
		if !resampled[start] {
			kept++
		}
	}
	ix.reachOff = make([]int32, ix.n+1)
	ix.reachStarts = make([]graph.NodeID, kept+len(adds))
	at := 0
	for t := 0; t < ix.n; t++ {
		add := adds[addOff[t]:addOff[t+1]]
		for _, start := range old.reachStarts[old.reachOff[t]:old.reachOff[t+1]] {
			if resampled[start] {
				continue
			}
			for len(add) > 0 && add[0] < start {
				ix.reachStarts[at] = add[0]
				at++
				add = add[1:]
			}
			ix.reachStarts[at] = start
			at++
		}
		at += copy(ix.reachStarts[at:], add)
		ix.reachOff[t+1] = int32(at)
	}
}

// retireStored retires the H contributions of one start node's walks by
// reading them off the stored walks, and reports whether it could. It can
// when every walk is stored at full length: L first visits in L steps
// leave no step for a revisit, so the j-th entry is where step j landed
// and every contribution is at level 1. A shorter stored walk hides a
// revisit or a dead end and must be simulated again to know which.
func (ix *Index) retireStored(mine []graph.NodeID) bool {
	for end := ix.L - 1; end < len(mine); end += ix.L {
		if mine[end] < 0 {
			return false
		}
	}
	for i, v := range mine {
		ix.sup.one[(i%ix.L)*ix.n+int(v)]--
	}
	return true
}
