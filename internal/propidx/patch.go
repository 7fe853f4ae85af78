package propidx

import (
	"context"
	"math"
	"slices"

	"repro/internal/graph"
)

// PatchStats reports what a Patch did.
type PatchStats struct {
	// PatchedRows is the number of Γ rows enumerated again: every row
	// when Rebuilt.
	PatchedRows int
	// Rebuilt reports that Patch could not be exact cheaply and ran Build.
	Rebuilt bool
}

// Patch returns exactly the index Build(ctx, newG, opt) returns, given
// old = the index of oldG, by re-enumerating only the rows an edge change
// can have moved. The enumeration of Γ(v) reads the in-neighbour list,
// with its weights, of v and of every node it places in Γ(v), and nothing
// else of the graph; so a row none of whose nodes had its in-list changed
// enumerates to the same entries in the same order, and is copied. The
// rows to redo are those v with a changed node in {v} ∪ Γ_old(v), found
// in one scan of the old rows, and enumerated on opt.Workers goroutines as
// Build's are. old is left untouched, and returned as is when no row
// needs redoing.
//
// When old cannot vouch for its rows under opt — other θ or path cap, an
// index that was not built here (Adopt), a different node count — Patch
// runs Build and says so in its stats.
func Patch(ctx context.Context, old *Index, oldG, newG *graph.Graph, opt Options) (*Index, PatchStats, error) {
	if err := opt.fill(); err != nil {
		return nil, PatchStats{}, err
	}
	n := newG.NumNodes()
	if math.Float64bits(old.theta) != math.Float64bits(opt.Theta) || old.maxPaths != opt.MaxPathsPerNode || old.NumNodes() != n || oldG.NumNodes() != n {
		ix, err := Build(ctx, newG, opt)
		return ix, PatchStats{PatchedRows: n, Rebuilt: true}, err
	}

	changed := make([]bool, n)
	for v := 0; v < n; v++ {
		if v%256 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, PatchStats{}, err
			}
		}
		was, wasW := oldG.InNeighbors(graph.NodeID(v))
		is, isW := newG.InNeighbors(graph.NodeID(v))
		changed[v] = !slices.Equal(was, is) || !slices.Equal(wasW, isW)
	}
	var dirty []int
	for v := 0; v < n; v++ {
		if v%256 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, PatchStats{}, err
			}
		}
		if changed[v] || anyOf(changed, old.src[old.off[v]:old.off[v+1]]) {
			dirty = append(dirty, v)
		}
	}
	if len(dirty) == 0 {
		return old, PatchStats{}, nil
	}

	rows := make([]row, len(dirty))
	if err := enumerateRows(ctx, newG, opt, rows, func(i int) graph.NodeID { return graph.NodeID(dirty[i]) }); err != nil {
		return nil, PatchStats{}, err
	}
	total := len(old.src)
	for i, v := range dirty {
		total += len(rows[i].src) - int(old.off[v+1]-old.off[v])
	}

	ix := &Index{
		theta: old.theta, maxPaths: old.maxPaths,
		off:       make([]int32, n+1),
		src:       make([]graph.NodeID, 0, total),
		prop:      make([]float64, 0, total),
		potential: make([]bool, 0, total),
	}
	next := 0 // first old row not yet carried over
	for i, v := range dirty {
		if i%64 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, PatchStats{}, err
			}
		}
		ix.carry(old, next, v)
		ix.src = append(ix.src, rows[i].src...)
		ix.prop = append(ix.prop, rows[i].prop...)
		ix.potential = append(ix.potential, rows[i].potential...)
		ix.off[v+1] = int32(len(ix.src))
		next = v + 1
	}
	ix.carry(old, next, n)
	return ix, PatchStats{PatchedRows: len(dirty)}, nil
}

// anyOf reports whether any node of run is marked.
func anyOf(marked []bool, run []graph.NodeID) bool {
	for _, u := range run {
		if marked[u] {
			return true
		}
	}
	return false
}

// carry appends old's rows [lo, hi) to ix, whose rows below lo are in
// place, as one copy per array.
func (ix *Index) carry(old *Index, lo, hi int) {
	a, b := old.off[lo], old.off[hi]
	shift := int32(len(ix.src)) - a
	ix.src = append(ix.src, old.src[a:b]...)
	ix.prop = append(ix.prop, old.prop[a:b]...)
	ix.potential = append(ix.potential, old.potential[a:b]...)
	for v := lo; v < hi; v++ {
		ix.off[v+1] = old.off[v+1] + shift
	}
}
