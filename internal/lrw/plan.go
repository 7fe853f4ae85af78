package lrw

// The topic-free half of Equation 5. The propagation term
//
//	Σ_{(u,v)∈E} P0(u,v)·N_i(v)/D_i(u) · P_i(u)
//
// multiplies the topic's rank vector P_i by a coefficient that depends on
// the edge and the iteration only, so a plan computes every coefficient
// once per (graph, walks) and lays the in-edges out in the order the
// per-topic pass reads them. That order is by (in-degree, node id): within
// a class every node has the same number of terms, so the inner loop's
// trip count is constant over runs of hundreds of nodes instead of
// changing, unpredictably, from one node to the next — the exit branch of
// a 4.5-trip loop mispredicted ≈ 72 000 times a topic on the benchmark
// graph and each miss serialized the gather → divide → add chain behind
// it. See DESIGN.md §12 "The propagation plan".

import (
	"context"
	"slices"

	"repro/internal/graph"
	"repro/internal/prob"
	"repro/internal/randwalk"
)

// degClass is a run of plan.nodes that share one in-degree.
type degClass struct {
	deg, count int32
}

// plan is valid for the (g, walks) pair it names and is only ever reached
// through a pooled scratch: at L = 6 on a 54 000-edge graph it holds
// ≈ 2.9 MB, which an engine field would add to the live heap of every
// engine a server keeps referenced, while a sync.Pool drops it under
// memory pressure. Holding the two pointers also keeps the keys alive, so
// pointer equality can never alias a recycled allocation.
type plan struct {
	g     *graph.Graph
	walks *randwalk.Index

	// nodes lists every node by (in-degree, id); classes are its runs of
	// equal in-degree, ascending. src is the in-neighbour lists of nodes,
	// flattened in that order, each list in the graph's own order.
	nodes   []graph.NodeID
	classes []degClass
	src     []graph.NodeID
	// coef[i-1][e] is (w·(H[i][v]+hFloor)) / D_i(u) for the edge u→v at
	// position e of src, or 0 where D_i(u) ≤ 0.
	coef [][]float64

	// Build-only: counting-sort cursors by in-degree, and one iteration's
	// H[i]+hFloor and D_i rows.
	cursor   []int32
	hPlus, d []float64
}

// resize returns s with length n, keeping its array when that is large
// enough. A larger one comes from append's growth policy, so a graph that
// gains a few edges per refresh does not reallocate per refresh. Contents
// are unspecified: every caller overwrites all n elements.
func resize[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}

// ensure makes p the plan of (g, walks), rebuilding it in place — within
// the capacity it already has — when it is another pair's. The plan is
// marked valid only once fully built; a cancellation mid-build leaves it
// invalid for the next caller.
func (p *plan) ensure(ctx context.Context, g *graph.Graph, walks *randwalk.Index) error {
	if p.g == g && p.walks == walks {
		return nil
	}
	p.g, p.walks = nil, nil
	p.layout(g)
	p.coef = resize(p.coef, walks.L)
	for i := 1; i <= walks.L; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		p.fill(i, g, walks)
	}
	p.g, p.walks = g, walks
	return nil
}

// layout orders g's nodes and in-edges for propagate: a counting sort by
// in-degree (always below n) that keeps ids ascending inside a class.
func (p *plan) layout(g *graph.Graph) {
	n := g.NumNodes()
	p.cursor = resize(p.cursor, n)
	clear(p.cursor)
	for v := 0; v < n; v++ {
		p.cursor[g.InDegree(graph.NodeID(v))]++
	}
	p.classes = p.classes[:0]
	at := int32(0)
	for deg, count := range p.cursor {
		p.cursor[deg] = at
		at += count
		if count > 0 {
			p.classes = append(p.classes, degClass{deg: int32(deg), count: count})
		}
	}
	p.nodes = resize(p.nodes, n)
	for v := 0; v < n; v++ {
		deg := g.InDegree(graph.NodeID(v))
		p.nodes[p.cursor[deg]] = graph.NodeID(v)
		p.cursor[deg]++
	}
	p.src = resize(p.src, g.NumEdges())
	e := 0
	for _, v := range p.nodes {
		in, _ := g.InNeighbors(v)
		e += copy(p.src[e:], in)
	}
}

// fill computes iteration i's coefficients. D_i and the quotient are
// evaluated in exactly the loops and operand order the per-topic kernel
// used when it derived them inline, so a coefficient times P_i(u) is the
// bit pattern that kernel added.
func (p *plan) fill(i int, g *graph.Graph, walks *randwalk.Index) {
	n := g.NumNodes()
	p.hPlus, p.d = resize(p.hPlus, n), resize(p.d, n)
	hPlus, d := p.hPlus, p.d
	for v, h := range walks.VisitFreqRow(i) {
		hPlus[v] = h + hFloor
	}
	// D_i(u) = Σ_{(u,w)∈E} w(u,w)·(H[i][w]+hFloor).
	for u := 0; u < n; u++ {
		nbrs, ws := g.OutNeighbors(graph.NodeID(u))
		sum := 0.0
		for k, w := range nbrs {
			sum += float64(ws[k] * hPlus[w]) //pitlint:ignore probinvariant D_T is a normalizing denominator, not a probability; the transition built from it is clamped at use
		}
		d[u] = sum
	}
	coef := resize(p.coef[i-1], g.NumEdges())
	p.coef[i-1] = coef
	e := 0
	for _, v := range p.nodes {
		in, inw := g.InNeighbors(v)
		hv := hPlus[v]
		for k, u := range in {
			// D_i(u) sums this very numerator among u's out-edges, so it is
			// positive on any graph whose weights are; the guard keeps a
			// malformed one from dividing 0 by 0. The kernel skipped such a
			// term; a zero coefficient adds +0.0 to the non-negative
			// accumulator — the same bits.
			if d[u] > 0 {
				coef[e] = inw[k] * hv / d[u]
			} else {
				coef[e] = 0
			}
			e++
		}
	}
}

// propagate is one iteration of Equation 5 for one topic: cur ← (1−λ)·P* +
// λ·(coefficients of iteration i)·prev. Each node's sum adds its in-edges
// in the graph's order and nodes are independent of one another, so the
// order nodes are visited in does not reach the result.
func (p *plan) propagate(i int, lambda float64, pStar, prev, cur []float64) {
	nodes, src, coef := p.nodes, p.src, p.coef[i-1]
	for _, c := range p.classes {
		deg := int(c.deg)
		for _, v := range nodes[:c.count] {
			// No skip for prev[u] = 0: that term is exactly +0.0 (the
			// coefficient is in [0,1] because D_i(u) sums its numerator
			// over all of u's out-edges), the additive identity for the
			// non-negative acc, and a branch on it mispredicts across every
			// mid-iteration frontier.
			acc := 0.0
			us := src[:deg]
			for k, w := range coef[:deg] {
				acc += float64(w * prev[us[k]])
			}
			src, coef = src[deg:], coef[deg:]
			// The reinforced transition is row-substochastic (each
			// coefficient is ≤ 1, see above), so the rank vector stays a
			// distribution; Clamp01 only strips accumulated rounding noise
			// at the boundaries.
			cur[v] = prob.Clamp01(float64((1-lambda)*pStar[v]) + float64(lambda*acc))
		}
		nodes = nodes[c.count:]
	}
}

// propagate4 is propagate for Lanes topics at once: lane j of pStar, prev
// and cur is topic j's vector. It runs the AVX kernel where the CPU has one
// and propagate4Go everywhere else; both write the same bits.
func (p *plan) propagate4(i int, lambda float64, pStar, prev, cur [][Lanes]float64) {
	if haveAVX {
		p.propagate4AVX(i, lambda, pStar, prev, cur)
		return
	}
	p.propagate4Go(i, lambda, pStar, prev, cur)
}

// propagate4AVX is propagate4Go with each in-degree class handed to the
// assembly kernel propagateClass4, which holds a node's four lanes in one
// 256-bit register: one broadcast coefficient times one prev row added per
// in-edge, in the plan's order, then (1−λ)·P* + λ·acc clamped by two
// compare-and-blend steps. Multiply and add are per lane and unfused, so
// every lane is propagate4Go's bits (DESIGN.md §12 "Four topics per pass").
// The kernel checks every index it reads against its slice and refuses
// rather than read past one; the refusal panics here as a bounds check
// would in propagate4Go.
func (p *plan) propagate4AVX(i int, lambda float64, pStar, prev, cur [][Lanes]float64) {
	nodes, src, coef := p.nodes, p.src, p.coef[i-1]
	for _, c := range p.classes {
		if !propagateClass4(int(c.deg), lambda, nodes[:c.count], src, coef, pStar, prev, cur) {
			panic("lrw: propagation plan indexes outside its vectors")
		}
		span := int(c.deg) * int(c.count)
		nodes, src, coef = nodes[c.count:], src[span:], coef[span:]
	}
}

// propagate4Go is the portable four-lane kernel, and the oracle the AVX
// one is tested against. The plan's src and coef stream once for all
// four, each in-edge gathers one 32-byte prev row, and the four sums are
// independent add chains. Per lane it is propagate term for term — the same
// coefficient times the same prev value added in the same order to an
// accumulator starting at 0, then the same Clamp01 expression — so lane j
// holds the bits propagate computes for topic j alone (DESIGN.md §12 "Four
// topics per pass").
func (p *plan) propagate4Go(i int, lambda float64, pStar, prev, cur [][Lanes]float64) {
	nodes, src, coef := p.nodes, p.src, p.coef[i-1]
	for _, c := range p.classes {
		deg := int(c.deg)
		for _, v := range nodes[:c.count] {
			// Four named accumulators, not an array: the compiler keeps these
			// in registers, an indexed array in memory.
			var a0, a1, a2, a3 float64
			us := src[:deg]
			for k, w := range coef[:deg] {
				x := &prev[us[k]]
				a0 += float64(w * x[0])
				a1 += float64(w * x[1])
				a2 += float64(w * x[2])
				a3 += float64(w * x[3])
			}
			src, coef = src[deg:], coef[deg:]
			ps, out := &pStar[v], &cur[v]
			out[0] = prob.Clamp01(float64((1-lambda)*ps[0]) + float64(lambda*a0))
			out[1] = prob.Clamp01(float64((1-lambda)*ps[1]) + float64(lambda*a1))
			out[2] = prob.Clamp01(float64((1-lambda)*ps[2]) + float64(lambda*a2))
			out[3] = prob.Clamp01(float64((1-lambda)*ps[3]) + float64(lambda*a3))
		}
		nodes = nodes[c.count:]
	}
}
