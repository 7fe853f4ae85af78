// Package dataset generates the synthetic social networks, topic spaces
// and query workloads used by the experiments (§6.1). The paper evaluates
// on a 2011 Twitter crawl plus three synthetic datasets derived from it by
// degree-band sampling ("data_2k", "data_350k", "data_1.2m", "data_3m");
// since the crawl is not redistributable, this package reproduces the same
// construction: preferential-attachment graphs with configurable degree
// bands, connectivity patching across weak components (the paper adds "a
// few synthetic edges among the close nodes across disconnected
// components"), topics placed with community locality, and tag-based query
// workloads. Node counts are scaled down so the whole harness runs on a
// laptop; see DESIGN.md §3 for the substitution argument.
package dataset

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
)

// GraphConfig parameterizes the synthetic social graph generator.
type GraphConfig struct {
	Nodes int
	// MinOutDegree/MaxOutDegree bound each node's out-degree, mirroring
	// the paper's degree bands.
	MinOutDegree, MaxOutDegree int
	// PreferentialBias is the probability that an edge target is chosen
	// preferentially (proportional to current in-degree) rather than
	// uniformly; 0.7 reproduces a heavy-tailed, Twitter-like in-degree
	// distribution.
	PreferentialBias float64
	// TotalStrength is the Σ of a node's outgoing transition
	// probabilities (≤ 1); per-edge weights split it randomly. Zero
	// defaults to 0.8.
	TotalStrength float64
	Seed          int64
}

func (c *GraphConfig) fill() error {
	if c.Nodes < 2 {
		return fmt.Errorf("dataset: need ≥ 2 nodes, got %d", c.Nodes)
	}
	if c.MinOutDegree < 1 {
		c.MinOutDegree = 1
	}
	if c.MaxOutDegree < c.MinOutDegree {
		c.MaxOutDegree = c.MinOutDegree
	}
	if c.MaxOutDegree >= c.Nodes {
		c.MaxOutDegree = c.Nodes - 1
	}
	if c.MinOutDegree > c.MaxOutDegree {
		c.MinOutDegree = c.MaxOutDegree
	}
	if c.PreferentialBias < 0 || c.PreferentialBias > 1 {
		c.PreferentialBias = 0.7
	}
	if c.TotalStrength <= 0 || c.TotalStrength > 1 {
		c.TotalStrength = 0.8
	}
	return nil
}

// GenerateGraph builds a weakly connected, directed, weighted social graph.
func GenerateGraph(cfg GraphConfig) (*graph.Graph, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.Nodes

	// Structure first: adjacency targets per node, preferential by
	// sampling the endpoint list (every recorded target appears once per
	// incoming edge, so a uniform pick over it is in-degree-biased).
	targets := make([][]graph.NodeID, n)
	var endpointPool []graph.NodeID
	for u := 0; u < n; u++ {
		deg := cfg.MinOutDegree
		if cfg.MaxOutDegree > cfg.MinOutDegree {
			deg += rng.Intn(cfg.MaxOutDegree - cfg.MinOutDegree + 1)
		}
		seen := map[graph.NodeID]bool{graph.NodeID(u): true}
		for len(targets[u]) < deg {
			var v graph.NodeID
			if len(endpointPool) > 0 && rng.Float64() < cfg.PreferentialBias {
				v = endpointPool[rng.Intn(len(endpointPool))]
			} else {
				v = graph.NodeID(rng.Intn(n))
			}
			if seen[v] {
				// Dense corner: fall back to uniform probing.
				v = graph.NodeID(rng.Intn(n))
				if seen[v] {
					continue
				}
			}
			seen[v] = true
			targets[u] = append(targets[u], v)
			endpointPool = append(endpointPool, v)
		}
	}

	// Weights: split TotalStrength randomly across each node's out-edges.
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		if len(targets[u]) == 0 {
			continue
		}
		parts := make([]float64, len(targets[u]))
		sum := 0.0
		for i := range parts {
			parts[i] = 0.1 + float64(rng.Float64())
			sum += parts[i]
		}
		for i, v := range targets[u] {
			w := cfg.TotalStrength * parts[i] / sum
			if err := b.AddEdge(graph.NodeID(u), v, w); err != nil {
				return nil, err
			}
		}
	}
	g := b.Build()
	return patchConnectivity(g, rng, cfg.TotalStrength)
}

// patchConnectivity links every weak component to the largest one with a
// pair of weak edges, re-building the graph once if needed.
func patchConnectivity(g *graph.Graph, rng *rand.Rand, strength float64) (*graph.Graph, error) {
	labels, count := graph.WeaklyConnectedComponents(g)
	if count <= 1 {
		return g, nil
	}
	sizes := make([]int, count)
	for _, l := range labels {
		sizes[l]++
	}
	main := 0
	for c, s := range sizes {
		if s > sizes[main] {
			main = c
		}
	}
	// One representative per non-main component.
	repOf := make([]graph.NodeID, count)
	for i := range repOf {
		repOf[i] = -1
	}
	var mainNodes []graph.NodeID
	for v, l := range labels {
		if repOf[l] == -1 {
			repOf[l] = graph.NodeID(v)
		}
		if int(l) == main && len(mainNodes) < 1024 {
			mainNodes = append(mainNodes, graph.NodeID(v))
		}
	}
	b := graph.NewBuilder(g.NumNodes())
	for _, e := range g.Edges() {
		if err := b.AddEdge(e.From, e.To, e.Weight); err != nil {
			return nil, err
		}
	}
	w := strength / 10
	if w <= 0 {
		w = 0.05
	}
	for c, rep := range repOf {
		if c == main || rep == -1 {
			continue
		}
		anchor := mainNodes[rng.Intn(len(mainNodes))]
		if err := b.AddEdge(rep, anchor, w); err != nil {
			return nil, err
		}
		if err := b.AddEdge(anchor, rep, w); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}
