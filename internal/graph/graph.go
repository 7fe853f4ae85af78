// Package graph implements the directed, weighted social-network graph
// substrate that every PIT-Search component builds on.
//
// A Graph stores the social network G = (V, E, Λ) from Section 2 of the
// paper: V is the set of social users, E the set of directed influence
// edges, and Λ the per-edge transition probabilities. Both the forward
// (out-edge) and reverse (in-edge) adjacency are kept in compressed sparse
// row (CSR) form so that forward random walks (Algorithm 6), reverse
// breadth-first traversals (Section 5.1) and PageRank-style iterations
// (Algorithm 7) are all cache-friendly, allocation-free scans.
//
// Graphs are immutable once built; construct them with a Builder or one of
// the loaders in io.go. Immutability is what allows every index in this
// repository to share a single Graph across goroutines without locking.
package graph

import (
	"fmt"
	"math"
)

// NodeID identifies a social user. IDs are dense: a graph with n nodes uses
// exactly the IDs 0..n-1. int32 keeps the large adjacency arrays compact
// while still addressing the multi-million node graphs the paper evaluates.
type NodeID = int32

// Edge is one directed influence link u→v with transition probability
// Weight = Λ(u,v) ∈ (0,1].
type Edge struct {
	From   NodeID
	To     NodeID
	Weight float64
}

// Graph is an immutable directed weighted graph in CSR form.
type Graph struct {
	n int

	// Forward CSR: out-neighbors of u are outTo[outOff[u]:outOff[u+1]],
	// with matching transition probabilities in outW.
	outOff []int32
	outTo  []NodeID
	outW   []float64

	// Reverse CSR: in-neighbors of v are inFrom[inOff[v]:inOff[v+1]],
	// with the weight of the edge (inFrom[i] → v) in inW[i].
	inOff  []int32
	inFrom []NodeID
	inW    []float64
}

// NumNodes returns |V|.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return len(g.outTo) }

// Valid reports whether id names a node of g.
func (g *Graph) Valid(id NodeID) bool { return id >= 0 && int(id) < g.n }

// OutDegree returns the number of out-edges of u.
func (g *Graph) OutDegree(u NodeID) int {
	return int(g.outOff[u+1] - g.outOff[u])
}

// InDegree returns the number of in-edges of v.
func (g *Graph) InDegree(v NodeID) int {
	return int(g.inOff[v+1] - g.inOff[v])
}

// Degree returns the total (in + out) degree of u. The paper's synthetic
// datasets are generated from total-degree bands, and RCL-A samples nodes
// proportionally to this value.
func (g *Graph) Degree(u NodeID) int { return g.OutDegree(u) + g.InDegree(u) }

// OutNeighbors returns the out-neighbor IDs of u alongside the transition
// probabilities of the corresponding edges. The returned slices alias the
// graph's internal storage and must not be modified.
func (g *Graph) OutNeighbors(u NodeID) ([]NodeID, []float64) {
	lo, hi := g.outOff[u], g.outOff[u+1]
	return g.outTo[lo:hi], g.outW[lo:hi]
}

// InNeighbors returns the in-neighbor IDs of v alongside the transition
// probabilities of the corresponding (in-neighbor → v) edges. The returned
// slices alias the graph's internal storage and must not be modified.
func (g *Graph) InNeighbors(v NodeID) ([]NodeID, []float64) {
	lo, hi := g.inOff[v], g.inOff[v+1]
	return g.inFrom[lo:hi], g.inW[lo:hi]
}

// EdgeWeight returns Λ(u,v) and whether the edge u→v exists. Neighbors are
// kept sorted by target ID, so the lookup is a binary search.
func (g *Graph) EdgeWeight(u, v NodeID) (float64, bool) {
	lo, hi := int(g.outOff[u]), int(g.outOff[u+1])
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case g.outTo[mid] < v:
			lo = mid + 1
		case g.outTo[mid] > v:
			hi = mid
		default:
			return g.outW[mid], true
		}
	}
	return 0, false
}

// HasEdge reports whether the directed edge u→v exists.
func (g *Graph) HasEdge(u, v NodeID) bool {
	_, ok := g.EdgeWeight(u, v)
	return ok
}

// Edges returns a fresh slice of all edges in (From, To) order. Intended
// for tests, serialization, and small graphs; it allocates O(|E|).
func (g *Graph) Edges() []Edge {
	edges := make([]Edge, 0, g.NumEdges())
	for u := 0; u < g.n; u++ {
		lo, hi := g.outOff[u], g.outOff[u+1]
		for i := lo; i < hi; i++ {
			edges = append(edges, Edge{From: NodeID(u), To: g.outTo[i], Weight: g.outW[i]})
		}
	}
	return edges
}

// AvgDegree returns the average out-degree |E|/|V|.
func (g *Graph) AvgDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return float64(g.NumEdges()) / float64(g.n)
}

// MaxWeight returns the largest edge transition probability in the graph,
// or 0 for an edgeless graph. The propagation-index builder uses it to
// bound path-expansion depth.
func (g *Graph) MaxWeight() float64 {
	maxW := 0.0
	for _, w := range g.outW {
		if w > maxW {
			maxW = w
		}
	}
	return maxW
}

// String implements fmt.Stringer with a short structural summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{nodes: %d, edges: %d, avg degree: %.2f}", g.n, g.NumEdges(), g.AvgDegree())
}

// Builder accumulates edges and produces an immutable Graph. The zero value
// is not usable; create one with NewBuilder.
type Builder struct {
	n     int
	edges []Edge
}

// NewBuilder returns a Builder for a graph with n nodes (IDs 0..n-1).
func NewBuilder(n int) *Builder {
	if n < 0 {
		n = 0
	}
	return &Builder{n: n}
}

// AddEdge records the directed edge u→v with transition probability w.
// It returns an error for out-of-range endpoints, self loops, or a weight
// outside (0, 1]: transition probabilities of zero carry no influence and
// would only bloat the CSR arrays.
func (b *Builder) AddEdge(u, v NodeID, w float64) error {
	if err := checkEndpoints(b.n, u, v); err != nil {
		return err
	}
	if err := checkEdge(u, v, w); err != nil {
		return err
	}
	b.edges = append(b.edges, Edge{From: u, To: v, Weight: w})
	return nil
}

// checkEndpoints reports an endpoint of u→v outside [0, n).
func checkEndpoints(n int, u, v NodeID) error {
	if u < 0 || int(u) >= n {
		return fmt.Errorf("graph: edge source %d out of range [0,%d)", u, n)
	}
	if v < 0 || int(v) >= n {
		return fmt.Errorf("graph: edge target %d out of range [0,%d)", v, n)
	}
	return nil
}

// checkEdge reports why u→v with weight w cannot be an edge: a self loop
// or a weight outside (0, 1].
func checkEdge(u, v NodeID, w float64) error {
	if u == v {
		return fmt.Errorf("graph: self loop on node %d", u)
	}
	if w <= 0 || w > 1 || math.IsNaN(w) {
		return fmt.Errorf("graph: edge %d->%d weight %v outside (0,1]", u, v, w)
	}
	return nil
}

// MustAddEdge is AddEdge that panics on error; for tests and hard-coded
// example graphs.
func (b *Builder) MustAddEdge(u, v NodeID, w float64) {
	if err := b.AddEdge(u, v, w); err != nil {
		panic(err)
	}
}

// NumEdges returns the number of edges added so far (duplicates included).
func (b *Builder) NumEdges() int { return len(b.edges) }

// Build finalizes the CSR arrays and returns the immutable Graph. Duplicate
// (u,v) edges are merged by keeping the maximum weight: datasets in the wild
// often repeat follow links and influence is not additive per duplicate
// link. Build may be called once; the Builder must be discarded afterwards.
func (b *Builder) Build() *Graph {
	g := &Graph{n: b.n}

	// Counting sort by source to build the forward CSR, sorting each
	// adjacency run by target so EdgeWeight can binary-search.
	g.outOff = make([]int32, b.n+1)
	for _, e := range b.edges {
		g.outOff[e.From+1]++
	}
	for i := 0; i < b.n; i++ {
		g.outOff[i+1] += g.outOff[i]
	}
	g.outTo = make([]NodeID, len(b.edges))
	g.outW = make([]float64, len(b.edges))
	cursor := make([]int32, b.n)
	copy(cursor, g.outOff[:b.n])
	for _, e := range b.edges {
		i := cursor[e.From]
		g.outTo[i] = e.To
		g.outW[i] = e.Weight
		cursor[e.From]++
	}
	sortAdjacencyRuns(g.outOff, g.outTo, g.outW)
	dedupeRuns(g)

	// Reverse CSR from the deduped forward CSR.
	g.inOff = make([]int32, b.n+1)
	for _, v := range g.outTo {
		g.inOff[v+1]++
	}
	for i := 0; i < b.n; i++ {
		g.inOff[i+1] += g.inOff[i]
	}
	g.inFrom = make([]NodeID, len(g.outTo))
	g.inW = make([]float64, len(g.outTo))
	copy(cursor, g.inOff[:b.n])
	for u := 0; u < b.n; u++ {
		for i := g.outOff[u]; i < g.outOff[u+1]; i++ {
			v := g.outTo[i]
			j := cursor[v]
			g.inFrom[j] = NodeID(u)
			g.inW[j] = g.outW[i]
			cursor[v]++
		}
	}
	sortAdjacencyRuns(g.inOff, g.inFrom, g.inW)
	return g
}

// sortAdjacencyRuns insertion-sorts each CSR run by neighbor ID. Runs are
// short (social-network degrees), so insertion sort beats sort.Sort's
// interface overhead and allocates nothing.
func sortAdjacencyRuns(off []int32, ids []NodeID, ws []float64) {
	for u := 0; u+1 < len(off); u++ {
		lo, hi := int(off[u]), int(off[u+1])
		for i := lo + 1; i < hi; i++ {
			id, w := ids[i], ws[i]
			j := i - 1
			for j >= lo && ids[j] > id {
				ids[j+1], ws[j+1] = ids[j], ws[j]
				j--
			}
			ids[j+1], ws[j+1] = id, w
		}
	}
}

// dedupeRuns collapses duplicate targets within each sorted forward run,
// keeping the maximum weight, and rewrites the CSR arrays in place.
func dedupeRuns(g *Graph) {
	newOff := make([]int32, len(g.outOff))
	write := int32(0)
	for u := 0; u < g.n; u++ {
		lo, hi := g.outOff[u], g.outOff[u+1]
		newOff[u] = write
		for i := lo; i < hi; i++ {
			if i > lo && g.outTo[i] == g.outTo[i-1] {
				if g.outW[i] > g.outW[write-1] {
					g.outW[write-1] = g.outW[i]
				}
				continue
			}
			g.outTo[write] = g.outTo[i]
			g.outW[write] = g.outW[i]
			write++
		}
	}
	newOff[g.n] = write
	g.outOff = newOff
	g.outTo = g.outTo[:write:write]
	g.outW = g.outW[:write:write]
}
