// Package randwalk implements the sample-based L-length random-walk index
// of Section 4.1 (Algorithm 6, INVERTTVHIT_INDEX). For every node w the
// index stores R independent L-length random walks I[i][w], the
// time-variant visiting frequency table H[j][v] used to reinforce the
// diversified PageRank of Algorithm 7, and the L-hop reverse-reachability
// lists I_L[v] ("all the nodes that can reach node v within L hops")
// consumed by RCL-A's grouping probabilities (Algorithm 1) and centroid
// voting (Algorithm 4). I_L is the inversion of the stored walks, and only
// RCL-A reads it, so an index derives it once, on its first read.
//
// Per the paper, the index is built once per dataset and shared by both
// summarization algorithms; its construction cost is amortized (§6.6).
package randwalk

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// Index is the materialized output of Algorithm 6. It is immutable after
// Build and safe for concurrent readers. The reach lists I_L are the one
// part made after Build: the first ReachL or CanReach call inverts the
// walks into them, once, whichever goroutines ask. Raw and MemoryBytes
// do not keep them: only RCL-A's reads do.
type Index struct {
	L int // walk length (hops per walk)
	R int // walks sampled per node
	n int // number of graph nodes

	// walks holds the R walks of every node in a flat array. Walk i of
	// node w occupies walks[(w*R+i)*L : (w*R+i)*L+L]; unused tail slots
	// are -1. As in Algorithm 6, a stored walk records only the *first*
	// visit to each node (the walk itself may pass through a node twice,
	// but I[i][w] does not repeat entries).
	walks []graph.NodeID

	// h[j-1][v] is H[j][v]: the maximum per-walk visiting frequency of
	// node v at iteration j ∈ [1,L], where one visit contributes 1/R.
	h [][]float64

	// Reverse reachability I_L in CSR form: the nodes that reached v on
	// some sampled walk within L hops are reachStarts[reachOff[v]:reachOff[v+1]],
	// sorted ascending. Both are nil until reachOnce has run (see reach);
	// reachDone reports that it has.
	reachOnce   sync.Once
	reachDone   atomic.Bool
	reachOff    []int32
	reachStarts []graph.NodeID

	// sup accounts for which walks stand behind every H cell, so Patch can
	// retire a re-sampled walk's share of a maximum. Nil on an index that
	// was not built here (Adopt): Patch rebuilds such an index.
	sup *support
}

// support is the bookkeeping that makes H patchable. H[j][v] is a maximum
// over every walk of every start node, so unlike the walks and the reach
// lists it does not decompose by start: dropping one walk lowers a cell
// only if no other walk still holds it up. A walk contributes to cell
// (j, v) when its j-th step lands on v, at level k = the number of times
// it has been on v by then (k·1/R is the frequency H records). Nearly all
// contributions are first visits, so level 1 is a dense count and the few
// revisits are a sparse map; H is exactly the highest supported level of
// each cell (fillH).
type support struct {
	seed int64 // Options.Seed of the build the counts describe
	// one[(j-1)*n+v] counts the walks whose j-th step is their first visit
	// of v.
	one []uint32
	// more counts the contributions at level ≥ 2; no entry is zero.
	more map[hCell]uint32
}

// hCell names a level ≥ 2 contribution: step lands on node for the
// level-th time in its walk.
type hCell struct {
	step, level int32
	node        graph.NodeID
}

// addMore moves the count behind one level ≥ 2 contribution by delta,
// which is 1 or, to retire one, ^uint32(0).
func (s *support) addMore(step, level int32, v graph.NodeID, delta uint32) {
	c := hCell{step: step, level: level, node: v}
	if left := s.more[c] + delta; left == 0 {
		delete(s.more, c)
	} else {
		s.more[c] = left
	}
}

// Options configures Build and Patch.
type Options struct {
	L    int   // walk length; must be ≥ 1
	R    int   // walks per node; must be ≥ 1
	Seed int64 // RNG seed; identical seeds give identical indexes
	// Workers parallelizes the sampling of Build only (including the
	// Build a Patch falls back to); Patch re-samples serially. Each node's
	// walks come from its own seeded RNG stream, so the index is identical
	// at any worker count. Default: GOMAXPROCS.
	Workers int
}

// SampleSize returns the number of walk samples R sufficient for the
// sampled visiting frequencies to be within eps of their expectation with
// probability 1−delta, by the Hoeffding inequality the paper cites for
// bounding R: R ≥ ln(2/δ) / (2ε²).
func SampleSize(eps, delta float64) int {
	if eps <= 0 || delta <= 0 || delta >= 1 {
		return 1
	}
	return int(math.Ceil(math.Log(2/delta) / (2 * eps * eps)))
}

// splitmix64 derives a well-mixed per-node seed from (seed, node) so walk
// sampling can be sharded across workers without changing its output.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Build runs Algorithm 6 over g and returns the index, its reach lists
// left to their first read. ctx is checked periodically inside every
// sampling shard; a done context aborts the build with ctx.Err() (index
// construction on a large graph can run for minutes, and a shutting-down
// server must not wait it out).
func Build(ctx context.Context, g *graph.Graph, opt Options) (*Index, error) {
	if err := opt.fill(); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	ix := &Index{L: opt.L, R: opt.R, n: n}
	ix.walks = make([]graph.NodeID, n*opt.R*opt.L)
	for i := range ix.walks {
		ix.walks[i] = -1
	}
	ix.sup = newSupport(opt, n)
	// Each shard samples start nodes [lo, hi), writing into the shared
	// walks array (disjoint per node) and into a shard-local support that
	// is summed afterwards; shard 0 counts straight into the index's own.
	workers := max(1, min(opt.Workers, n))
	sups := make([]*support, workers)
	errs := make([]error, workers)
	parallel(workers, func(w int) {
		sups[w] = ix.sup
		if w > 0 {
			sups[w] = newSupport(opt, n)
		}
		errs[w] = ix.sampleRange(ctx, g, opt, w*n/workers, (w+1)*n/workers, sups[w])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	ix.sup.add(sups[1:])
	ix.fillH()
	return ix, nil
}

// parallel runs f(0), …, f(workers-1) on goroutines of their own and waits
// for all of them.
func parallel(workers int, f func(w int)) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(w)
		}()
	}
	wg.Wait()
}

func (o *Options) fill() error {
	if o.L < 1 {
		return fmt.Errorf("randwalk: L must be ≥ 1, got %d", o.L)
	}
	if o.R < 1 {
		return fmt.Errorf("randwalk: R must be ≥ 1, got %d", o.R)
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return nil
}

func newSupport(opt Options, n int) *support {
	return &support{seed: opt.Seed, one: make([]uint32, opt.L*n), more: map[hCell]uint32{}}
}

// add sums the counts of parts, Build's shard-local supports, into s.
func (s *support) add(parts []*support) {
	for _, p := range parts {
		for i, c := range p.one {
			s.one[i] += c
		}
		for c, cnt := range p.more {
			s.addMore(c.step, c.level, c.node, cnt)
		}
	}
}

// sampleRange runs Algorithm 6's sampling loop for start nodes [lo, hi),
// checking ctx every few start nodes, and counts their H contributions
// into sup.
func (ix *Index) sampleRange(ctx context.Context, g *graph.Graph, opt Options, lo, hi int, sup *support) error {
	s := newSampler(ix.n)
	for w := lo; w < hi; w++ {
		if (w-lo)%256 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		s.sample(g, opt, w, ix.walks, sup, 1)
	}
	return nil
}

// sampler is one goroutine's scratch for simulating walks.
type sampler struct {
	// One generator, re-seeded per start node, so every start node draws
	// from its own stream and the index is independent of the worker count
	// and of which start nodes a Patch re-samples. Its source is
	// math/rand's stream seeded in O(1) (see source): re-seeding costs a
	// start node only the register words its draws read, not a 607-word
	// fill, and Intn is still rand.Rand's own.
	rng *rand.Rand
	// Per-walk visit counts with epoch marking so the counts are
	// "initialized" per walk (Algorithm 6 line 6) without O(n) clears.
	visits []int32
	epoch  []int64
	cur    int64
}

func newSampler(n int) *sampler {
	return &sampler{rng: rand.New(newSource(0)), visits: make([]int32, n), epoch: make([]int64, n)}
}

// sample simulates the R walks of start node w over g from w's own RNG
// stream and moves the support count of every step by delta (1, or
// ^uint32(0) to retire the walks). With walks non-nil it also stores each
// walk's first visits there; w's slots must hold -1 on entry.
func (s *sampler) sample(g *graph.Graph, opt Options, w int, walks []graph.NodeID, sup *support, delta uint32) {
	n := len(s.visits)
	s.rng.Seed(int64(splitmix64(uint64(opt.Seed) ^ uint64(w)<<1)))
	for i := 0; i < opt.R; i++ {
		s.cur++
		u := graph.NodeID(w)
		s.epoch[u] = s.cur
		s.visits[u] = 1
		base := (w*opt.R + i) * opt.L
		fill := 0
		for j := 1; j <= opt.L; j++ {
			nbrs, _ := g.OutNeighbors(u)
			if len(nbrs) == 0 {
				break // dead end: the walk terminates early
			}
			v := nbrs[s.rng.Intn(len(nbrs))]
			if s.epoch[v] != s.cur {
				s.epoch[v] = s.cur
				s.visits[v] = 1
				if walks != nil {
					walks[base+fill] = v
					fill++
				}
				sup.one[(j-1)*n+int(v)] += delta
			} else {
				s.visits[v]++
				sup.addMore(int32(j), s.visits[v], v, delta)
			}
			u = v
		}
	}
}

// fillH derives every H row from the support: a cell holds the frequency
// of its highest supported level, where level k is 1/R added up k times —
// the float a walk accumulates visit by visit.
func (ix *Index) fillH() {
	ix.h = make([][]float64, ix.L)
	levels := make([]float64, ix.L+2) // a walk is on a node at most L+1 times
	for k := 1; k < len(levels); k++ {
		levels[k] = levels[k-1] + 1.0/float64(ix.R)
	}
	for j := range ix.h {
		row := make([]float64, ix.n)
		for v, c := range ix.sup.one[j*ix.n : (j+1)*ix.n] {
			if c > 0 {
				row[v] = levels[1]
			}
		}
		ix.h[j] = row
	}
	for c := range ix.sup.more {
		if f := levels[c.level]; f > ix.h[c.step-1][c.node] {
			ix.h[c.step-1][c.node] = f
		}
	}
}

// reach returns the reach CSR, inverting the stored walks into it on the
// first call: for every target the distinct start nodes whose walks visit
// it, ascending. invertWalks' ordering precondition — entries grouped by
// ascending start node — is the walks array's own layout, however Build
// cut the start nodes into shards.
func (ix *Index) reach() ([]int32, []graph.NodeID) {
	ix.reachOnce.Do(func() {
		ix.reachOff, ix.reachStarts = ix.invertWalks(nil)
		ix.reachDone.Store(true)
	})
	return ix.reachOff, ix.reachStarts
}

// setReach installs a reach CSR made elsewhere (Adopt, Patch) as if reach
// had derived it. The index must not be shared yet.
func (ix *Index) setReach(off []int32, starts []graph.NodeID) {
	ix.reachOff, ix.reachStarts = off, starts
	ix.reachOnce.Do(func() {})
	ix.reachDone.Store(true)
}

// invertWalks returns, in CSR form, for every target the distinct start
// nodes whose stored walks visit it, ascending — of all start nodes, or
// with only non-nil of those it marks. Every stored walk entry is one
// (target, start) pair, and the walks array holds them grouped by
// ascending start node, so a stable counting sort by target leaves each
// target's starts already ascending, and a start is a repeat for its
// target exactly when it equals the last start that target saw. Two
// passes over the walks — count the distinct pairs, then place them — size
// the output exactly and need no pair buffer or comparison sort.
func (ix *Index) invertWalks(only []bool) (off []int32, starts []graph.NodeID) {
	off = make([]int32, ix.n+1)
	perStart := ix.R * ix.L
	last := make([]graph.NodeID, ix.n)
	for i := range last {
		last[i] = -1
	}
	for base, start := 0, graph.NodeID(0); base < len(ix.walks); base, start = base+perStart, start+1 {
		if only != nil && !only[start] {
			continue
		}
		for _, target := range ix.walks[base : base+perStart] {
			if target >= 0 && last[target] != start {
				last[target] = start
				off[target+1]++
			}
		}
	}
	for i := 0; i < ix.n; i++ {
		off[i+1] += off[i]
	}
	starts = make([]graph.NodeID, off[ix.n])
	next := last // next free slot of each target's run
	copy(next, off)
	for base, start := 0, graph.NodeID(0); base < len(ix.walks); base, start = base+perStart, start+1 {
		if only != nil && !only[start] {
			continue
		}
		for _, target := range ix.walks[base : base+perStart] {
			if target < 0 {
				continue
			}
			if at := next[target]; at == off[target] || starts[at-1] != start {
				starts[at] = start
				next[target] = at + 1
			}
		}
	}
	return off, starts
}

// NumNodes returns the node count the index was built over.
func (ix *Index) NumNodes() int { return ix.n }

// Walk returns the i-th stored walk of node w: the sequence of first-visit
// nodes, in visit order, excluding w itself. The slice aliases internal
// storage; do not modify it.
func (ix *Index) Walk(i int, w graph.NodeID) []graph.NodeID {
	base := (int(w)*ix.R + i) * ix.L
	run := ix.walks[base : base+ix.L]
	end := 0
	for end < len(run) && run[end] >= 0 {
		end++
	}
	return run[:end]
}

// ReachL returns I_L[v]: the sorted set of nodes observed to reach v within
// L hops on the sampled walks. The slice aliases internal storage. The
// first call on an index derives every list (see Index).
func (ix *Index) ReachL(v graph.NodeID) []graph.NodeID {
	off, starts := ix.reach()
	return starts[off[v]:off[v+1]]
}

// CanReach reports whether start was observed to reach target within L hops
// (a binary search over ReachL).
func (ix *Index) CanReach(start, target graph.NodeID) bool {
	run := ix.ReachL(target)
	lo, hi := 0, len(run)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case run[mid] < start:
			lo = mid + 1
		case run[mid] > start:
			hi = mid
		default:
			return true
		}
	}
	return false
}

// VisitFreq returns H[step][v], the maximum visiting frequency of v at
// iteration step ∈ [1, L]. Steps outside the range return 0.
func (ix *Index) VisitFreq(step int, v graph.NodeID) float64 {
	if step < 1 || step > ix.L {
		return 0
	}
	return ix.h[step-1][v]
}

// VisitFreqRow returns the full H[step] row (aliases internal storage).
func (ix *Index) VisitFreqRow(step int) []float64 {
	if step < 1 || step > ix.L {
		return nil
	}
	return ix.h[step-1]
}

// MemoryBytes estimates the resident size of the index, reported by the
// Figure 15 index-cost experiment. It counts the reach lists only once a
// reader has derived them.
func (ix *Index) MemoryBytes() int64 {
	b := int64(len(ix.walks)) * 4
	b += int64(ix.L) * int64(ix.n) * 8
	if ix.reachDone.Load() {
		b += int64(len(ix.reachOff))*4 + int64(len(ix.reachStarts))*4
	}
	if ix.sup != nil {
		b += int64(len(ix.sup.one)) * 4 // the map of revisits is a few KB at most
	}
	return b
}
