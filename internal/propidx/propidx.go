// Package propidx implements the personalized influence propagation index
// of Section 5.1. For every node v it materializes Γ(v): the set of nearby
// nodes u that can reach v along at least one simple path whose transition
// probability (product of edge weights) is at least θ, together with the
// aggregated propagation value Σ_paths Pr(p) of all such paths. Nodes whose
// further expansion was cut off by the threshold are marked "potential";
// the online top-k search expands only those marks when its pruning bound
// cannot yet decide the result (Algorithm 10 line 14, Algorithm 11).
package propidx

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// Options configures Build and Patch.
type Options struct {
	// Theta is the propagation threshold θ ∈ (0,1): a path is indexed only
	// while its probability stays ≥ θ.
	Theta float64
	// MaxPathsPerNode caps the number of path extensions enumerated per
	// target node so that adversarially dense graphs stay polynomial.
	// When the cap is hit, remaining frontier nodes are marked potential
	// (they behave exactly like θ-cut nodes: expandable online).
	// Default 200_000.
	MaxPathsPerNode int
	// Workers parallelizes the per-target enumeration of Build and of
	// Patch's dirty rows (each target's Γ row is independent, so the
	// result is identical at any worker count). Default: GOMAXPROCS.
	Workers int
}

func (o *Options) fill() error {
	if !(o.Theta > 0 && o.Theta < 1) { // NaN fails both comparisons
		return fmt.Errorf("propidx: theta must be in (0,1), got %v", o.Theta)
	}
	if o.MaxPathsPerNode <= 0 {
		o.MaxPathsPerNode = 200_000
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return nil
}

// Index is the materialized propagation index: one Γ(v) lookup table per
// node. Immutable after Build; safe for concurrent readers.
type Index struct {
	theta float64
	// maxPaths is the Options.MaxPathsPerNode every row was enumerated
	// under; 0 when unknown (Adopt), which makes Patch rebuild.
	maxPaths int

	// CSR over targets: the sources able to reach target v with
	// aggregated propagation ≥ θ-per-path occupy positions
	// off[v]..off[v+1]. src runs are sorted by source ID.
	off       []int32
	src       []graph.NodeID
	prop      []float64
	potential []bool
}

// Theta returns the threshold the index was built with.
func (ix *Index) Theta() float64 { return ix.theta }

// NumNodes returns the number of target nodes indexed.
func (ix *Index) NumNodes() int { return len(ix.off) - 1 }

// Gamma returns Γ(v): the sorted source nodes that reach v above
// threshold, their aggregated propagation values, and their potential
// marks. The slices alias internal storage and must not be modified.
func (ix *Index) Gamma(v graph.NodeID) (srcs []graph.NodeID, props []float64, potential []bool) {
	lo, hi := ix.off[v], ix.off[v+1]
	return ix.src[lo:hi], ix.prop[lo:hi], ix.potential[lo:hi]
}

// Prop returns the aggregated propagation value of u to v (v's "hashmap"
// lookup in the paper) and whether u ∈ Γ(v).
func (ix *Index) Prop(v, u graph.NodeID) (float64, bool) {
	lo, hi := int(ix.off[v]), int(ix.off[v+1])
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case ix.src[mid] < u:
			lo = mid + 1
		case ix.src[mid] > u:
			hi = mid
		default:
			return ix.prop[mid], true
		}
	}
	return 0, false
}

// MaxPotential returns maxEP(v): the maximum aggregated propagation among
// v's potential-marked nodes (0 when none are marked). This is the upper
// bound factor of Algorithm 10 line 16.
func (ix *Index) MaxPotential(v graph.NodeID) float64 {
	lo, hi := ix.off[v], ix.off[v+1]
	maxEP := 0.0
	for i := lo; i < hi; i++ {
		if ix.potential[i] && ix.prop[i] > maxEP {
			maxEP = ix.prop[i]
		}
	}
	return maxEP
}

// Size returns the total number of (target, source) entries, the space
// measure the Figure 13/14 experiments report.
func (ix *Index) Size() int { return len(ix.src) }

// MemoryBytes estimates the resident size of the index.
func (ix *Index) MemoryBytes() int64 {
	return int64(len(ix.off))*4 + int64(len(ix.src))*4 + int64(len(ix.prop))*8 + int64(len(ix.potential))
}

// frame is one branch of the reverse path tree rooted at the target.
type frame struct {
	node   graph.NodeID
	parent int32 // index into frames, -1 for the root
	prob   float64
}

// row is one target's finished Γ entries.
type row struct {
	src       []graph.NodeID
	prop      []float64
	potential []bool
}

// enumerator holds per-worker scratch state for the reverse path
// enumeration of one target at a time.
type enumerator struct {
	g      *graph.Graph
	opt    Options
	frames []frame
	stack  []int32
	cuts   []cutRec

	// Dense per-node state of the target being enumerated, valid for node
	// u only while stamp[u] == epoch: agg[u] is the propagation aggregated
	// over the paths found so far and pot[u] its potential mark. nodes
	// lists the stamped nodes — Γ(v)'s sources — in discovery order.
	// Stamping makes the reset between targets O(1) instead of O(n).
	epoch uint32
	stamp []uint32
	agg   []float64
	pot   []bool
	nodes []graph.NodeID
}

type cutRec struct{ node, prunedIn graph.NodeID }

func newEnumerator(g *graph.Graph, opt Options) *enumerator {
	n := g.NumNodes()
	return &enumerator{
		g: g, opt: opt,
		stamp: make([]uint32, n),
		agg:   make([]float64, n),
		pot:   make([]bool, n),
	}
}

// enumerate builds Γ(v) for one target node.
func (e *enumerator) enumerate(v graph.NodeID) row {
	e.frames = e.frames[:0]
	e.stack = e.stack[:0]
	e.cuts = e.cuts[:0]
	e.nodes = e.nodes[:0]
	e.epoch++
	if e.epoch == 0 { // wrapped: a stale stamp must never equal a live epoch
		clear(e.stamp)
		e.epoch = 1
	}

	e.frames = append(e.frames, frame{node: v, parent: -1, prob: 1})
	e.stack = append(e.stack, 0)
	budget := e.opt.MaxPathsPerNode

	for len(e.stack) > 0 {
		fi := e.stack[len(e.stack)-1]
		e.stack = e.stack[:len(e.stack)-1]
		f := e.frames[fi]
		if f.parent >= 0 {
			// Path probabilities are summed per source in pop order, the
			// order that fixes the float result.
			if e.stamp[f.node] != e.epoch {
				e.stamp[f.node] = e.epoch
				e.agg[f.node] = 0
				e.pot[f.node] = false
				e.nodes = append(e.nodes, f.node)
			}
			e.agg[f.node] += f.prob
		}
		in, inw := e.g.InNeighbors(f.node)
		for k, u := range in {
			if onPath(e.frames, fi, u) {
				continue // simple paths only
			}
			p := f.prob * inw[k]
			if p < e.opt.Theta || budget <= 0 {
				// Expansion of this branch stops at f.node; u may
				// still be reachable online, so record the cut.
				e.cuts = append(e.cuts, cutRec{node: f.node, prunedIn: u})
				continue
			}
			budget--
			e.frames = append(e.frames, frame{node: u, parent: fi, prob: p})
			e.stack = append(e.stack, int32(len(e.frames)-1))
		}
	}

	// A node in the tree is marked potential when some pruned in-neighbor
	// is not itself in Γ(v): influence may flow in from outside the
	// indexed neighborhood (Figure 3's node 11).
	for _, c := range e.cuts {
		if c.prunedIn == v || c.node == v {
			continue
		}
		if e.stamp[c.prunedIn] != e.epoch {
			e.pot[c.node] = true
		}
	}

	slices.Sort(e.nodes)
	r := row{
		src:       slices.Clone(e.nodes),
		prop:      make([]float64, len(e.nodes)),
		potential: make([]bool, len(e.nodes)),
	}
	for i, u := range r.src {
		r.prop[i] = e.agg[u]
		r.potential[i] = e.pot[u]
	}
	return r
}

// Build materializes the index for every node of g with a reverse
// depth-first path enumeration bounded by θ. Targets are sharded across
// opt.Workers goroutines (enumerateRows); the result is identical at any
// worker count. A done context aborts the build with ctx.Err().
func Build(ctx context.Context, g *graph.Graph, opt Options) (*Index, error) {
	if err := opt.fill(); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	ix := &Index{theta: opt.Theta, maxPaths: opt.MaxPathsPerNode, off: make([]int32, n+1)}
	if n == 0 {
		return ix, nil
	}

	rows := make([]row, n)
	if err := enumerateRows(ctx, g, opt, rows, func(i int) graph.NodeID { return graph.NodeID(i) }); err != nil {
		return nil, err
	}

	total := 0
	for v := range rows {
		total += len(rows[v].src)
		ix.off[v+1] = int32(total)
	}
	ix.src = make([]graph.NodeID, 0, total)
	ix.prop = make([]float64, 0, total)
	ix.potential = make([]bool, 0, total)
	for v := range rows {
		ix.src = append(ix.src, rows[v].src...)
		ix.prop = append(ix.prop, rows[v].prop...)
		ix.potential = append(ix.potential, rows[v].potential...)
	}
	return ix, nil
}

// enumerateRows sets rows[i] to Γ(target(i)) for every i, on up to
// opt.Workers goroutines that take chunks of consecutive indexes in turn,
// each with an enumerator of its own. Every row is independent of the
// others, so the rows are the same at any worker count. ctx is checked
// before every chunk; a done context fails the call with ctx.Err() once
// every worker has stopped.
func enumerateRows(ctx context.Context, g *graph.Graph, opt Options, rows []row, target func(i int) graph.NodeID) error {
	workers := min(opt.Workers, len(rows))
	var wg sync.WaitGroup
	var next atomic.Int64
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = enumerateChunks(ctx, newEnumerator(g, opt), &next, rows, target)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// enumerateChunks is one enumerateRows worker: it claims the next chunk of
// rows from next until none is left, checking ctx before each.
func enumerateChunks(ctx context.Context, e *enumerator, next *atomic.Int64, rows []row, target func(i int) graph.NodeID) error {
	const chunk = 32
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		lo := int(next.Add(chunk)) - chunk
		if lo >= len(rows) {
			return nil
		}
		for i := lo; i < min(lo+chunk, len(rows)); i++ {
			rows[i] = e.enumerate(target(i))
		}
	}
}

// onPath reports whether node u already lies on the branch ending at
// frames[fi]. Branch depth is bounded by log(θ)/log(maxWeight), so the
// walk up the parent chain is short.
func onPath(frames []frame, fi int32, u graph.NodeID) bool {
	for fi >= 0 {
		if frames[fi].node == u {
			return true
		}
		fi = frames[fi].parent
	}
	return false
}
