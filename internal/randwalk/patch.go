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
// visits it: every node a walk visits is the start or in its stored
// first-visit list, so the start nodes to re-sample are those whose stored
// walks hold a changed node, or which are one — the changed nodes' ReachL
// sets, found in one scan of the old walks without deriving I_L. Each of
// them draws again from its own seeded stream, which is what a full build
// would do; every other start node would draw the same numbers over the
// same neighbour lists, so its walks are copied. The H contributions of
// the replaced walks are retired from the support counts and the new ones
// added (see support), and H is re-derived from the counts. old is left
// untouched, and returned as is when no neighbour list changed (a batch of
// weight updates).
//
// The new index derives its reach lists on first read, as a built one
// does — unless old had already derived its own (an engine serving RCL-A),
// in which case they are merged from old's (patchReach) rather than left
// to a full inversion on the first RCL-A summary after the swap.
//
// When exactness would need the whole build anyway — old has no support
// counts (Adopt), a different node count, or other L, R or seed — Patch
// runs Build and says so in its stats; the built index's reach lists then
// wait for their first read, as every built index's do.
func Patch(ctx context.Context, old *Index, oldG, newG *graph.Graph, opt Options) (*Index, PatchStats, error) {
	if err := opt.fill(); err != nil {
		return nil, PatchStats{}, err
	}
	n := newG.NumNodes()
	if old.sup == nil || old.n != n || oldG.NumNodes() != n || old.L != opt.L || old.R != opt.R || old.sup.seed != opt.Seed {
		ix, err := Build(ctx, newG, opt)
		return ix, PatchStats{Resampled: n, Rebuilt: true}, err
	}

	changed := make([]bool, n)
	anyChanged := false
	for u := 0; u < n; u++ {
		if u%256 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, PatchStats{}, err
			}
		}
		was, _ := oldG.OutNeighbors(graph.NodeID(u))
		is, _ := newG.OutNeighbors(graph.NodeID(u))
		if !slices.Equal(was, is) {
			changed[u], anyChanged = true, true
		}
	}
	if !anyChanged {
		return old, PatchStats{}, nil
	}
	dirty, err := old.touching(ctx, changed)
	if err != nil {
		return nil, PatchStats{}, err
	}

	ix := &Index{L: old.L, R: old.R, n: n, walks: slices.Clone(old.walks)}
	ix.sup = &support{seed: opt.Seed, one: slices.Clone(old.sup.one), more: maps.Clone(old.sup.more)}
	resampled, err := ix.resample(ctx, oldG, newG, opt, dirty)
	if err != nil {
		return nil, PatchStats{}, err
	}
	ix.fillH()
	if old.reachDone.Load() {
		ix.setReach(ix.patchReach(old, dirty))
	}
	return ix, PatchStats{Resampled: resampled}, nil
}

// touching returns the start nodes whose walks the changed nodes can
// alter — a changed start, or one whose stored walks hold a changed node —
// as a mask over the starts. It reads the stored walks once, checking ctx
// every few start nodes.
func (ix *Index) touching(ctx context.Context, changed []bool) ([]bool, error) {
	dirty := make([]bool, ix.n)
	perStart := ix.R * ix.L
	for w := 0; w < ix.n; w++ {
		if w%256 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		hit := changed[w]
		for _, v := range ix.walks[w*perStart : (w+1)*perStart] {
			if hit {
				break
			}
			hit = v >= 0 && changed[v]
		}
		dirty[w] = hit
	}
	return dirty, nil
}

// resample re-samples the walks of the dirty starts and returns how many
// there were: it retires their old H contributions from the support
// counts, clears their slots and samples them again over newG, checking
// ctx every few start nodes.
func (ix *Index) resample(ctx context.Context, oldG, newG *graph.Graph, opt Options, dirty []bool) (int, error) {
	s := newSampler(ix.n)
	perStart := ix.R * ix.L
	resampled := 0
	for w, hit := range dirty {
		if !hit {
			continue
		}
		if resampled%256 == 0 {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
		}
		resampled++
		mine := ix.walks[w*perStart : (w+1)*perStart]
		if !ix.retireStored(mine) {
			s.sample(oldG, opt, w, nil, ix.sup, ^uint32(0))
		}
		for i := range mine {
			mine[i] = -1
		}
		s.sample(newG, opt, w, ix.walks, ix.sup, 1)
	}
	return resampled, nil
}

// patchReach derives the reach lists from old's, which must be in place,
// instead of inverting every walk again: each target keeps its old starts
// except the re-sampled ones, merged with the re-sampled starts whose new
// walks visit it. Both runs ascend and share no start, so the merge is one
// pass over the old CSR.
func (ix *Index) patchReach(old *Index, resampled []bool) ([]int32, []graph.NodeID) {
	addOff, adds := ix.invertWalks(resampled)
	kept := 0
	for _, start := range old.reachStarts {
		if !resampled[start] {
			kept++
		}
	}
	off := make([]int32, ix.n+1)
	starts := make([]graph.NodeID, kept+len(adds))
	at := 0
	for t := 0; t < ix.n; t++ {
		add := adds[addOff[t]:addOff[t+1]]
		for _, start := range old.reachStarts[old.reachOff[t]:old.reachOff[t+1]] {
			if resampled[start] {
				continue
			}
			for len(add) > 0 && add[0] < start {
				starts[at] = add[0]
				at++
				add = add[1:]
			}
			starts[at] = start
			at++
		}
		at += copy(starts[at:], add)
		off[t+1] = int32(at)
	}
	return off, starts
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
