package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// Splice returns a new graph over n ≥ NumNodes() nodes holding g's edges
// with updates applied in slice order: Weight > 0 upserts From→To,
// Weight 0 deletes it, deleting an edge g does not have is a no-op, and of
// several updates to one edge the last one wins. The result is the graph
// a Builder fed the surviving edges builds, but only the rows an update
// touches are merged; the runs of rows between them are copied, in the
// forward and in the reverse CSR. g is not modified.
//
// An update whose endpoint lies outside [0, n) fails the splice, as does
// a surviving upsert AddEdge would refuse (a self loop, a weight outside
// (0, 1]), with AddEdge's error; of several invalid updates the first in
// (From, To) order is the one reported.
func (g *Graph) Splice(n int, updates []Edge) (*Graph, error) {
	if n < g.n {
		return nil, fmt.Errorf("graph: splice to %d nodes would drop nodes of a %d-node graph", n, g.n)
	}
	// A stable sort by (From, To) keeps each edge's updates in slice
	// order, so the last of a run is the one that sticks.
	fwd := slices.Clone(updates)
	slices.SortStableFunc(fwd, func(a, b Edge) int {
		return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
	})
	edges := g.NumEdges()
	kept := 0
	for i, e := range fwd {
		if i+1 < len(fwd) && fwd[i+1].From == e.From && fwd[i+1].To == e.To {
			continue
		}
		if err := checkEndpoints(n, e.From, e.To); err != nil {
			return nil, err
		}
		had := int(e.From) < g.n && g.HasEdge(e.From, e.To)
		if e.Weight == 0 {
			if !had {
				continue // an absent edge stays absent
			}
			edges--
		} else if err := checkEdge(e.From, e.To, e.Weight); err != nil {
			return nil, err
		} else if !had {
			edges++
		}
		fwd[kept] = e
		kept++
	}
	fwd = fwd[:kept]

	// The reverse CSR is the forward CSR of the transposed graph, so the
	// same splice serves it over the updates with their endpoints swapped.
	rev := make([]Edge, len(fwd))
	for i, e := range fwd {
		rev[i] = Edge{From: e.To, To: e.From, Weight: e.Weight}
	}
	slices.SortFunc(rev, func(a, b Edge) int {
		return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
	})
	out := &Graph{n: n}
	out.outOff, out.outTo, out.outW = spliceRows(g.outOff, g.outTo, g.outW, n, edges, fwd)
	out.inOff, out.inFrom, out.inW = spliceRows(g.inOff, g.inFrom, g.inW, n, edges, rev)
	return out, nil
}

// spliceRows returns the CSR (off, ids, ws), of as many rows as off has,
// grown to n rows with changes applied: changes are sorted by (From, To)
// with one entry per edge, From names the row and To the column, Weight 0
// removes the entry and any other weight sets it. total is the entry
// count of the result.
func spliceRows(off []int32, ids []NodeID, ws []float64, n, total int, changes []Edge) ([]int32, []NodeID, []float64) {
	rows := len(off) - 1
	newOff := make([]int32, n+1)
	newIds := make([]NodeID, 0, total)
	newWs := make([]float64, 0, total)
	// carry copies rows [lo, hi) over as one run; rows past the old ones
	// are empty.
	carry := func(lo, hi int) {
		if top := min(hi, rows); lo < top {
			a, b := off[lo], off[top]
			shift := int32(len(newIds)) - a
			newIds = append(newIds, ids[a:b]...)
			newWs = append(newWs, ws[a:b]...)
			for r := lo; r < top; r++ {
				newOff[r+1] = off[r+1] + shift
			}
			lo = top
		}
		for r := lo; r < hi; r++ {
			newOff[r+1] = int32(len(newIds))
		}
	}
	next := 0 // first row not yet written
	for len(changes) > 0 {
		u := int(changes[0].From)
		k := 1
		for k < len(changes) && int(changes[k].From) == u {
			k++
		}
		carry(next, u)
		var was []NodeID
		var wasW []float64
		if u < rows {
			was, wasW = ids[off[u]:off[u+1]], ws[off[u]:off[u+1]]
		}
		i := 0
		for _, c := range changes[:k] {
			for i < len(was) && was[i] < c.To {
				newIds, newWs = append(newIds, was[i]), append(newWs, wasW[i])
				i++
			}
			if i < len(was) && was[i] == c.To {
				i++ // replaced or deleted
			}
			if c.Weight != 0 {
				newIds, newWs = append(newIds, c.To), append(newWs, c.Weight)
			}
		}
		newIds, newWs = append(newIds, was[i:]...), append(newWs, wasW[i:]...)
		newOff[u+1] = int32(len(newIds))
		changes, next = changes[k:], u+1
	}
	carry(next, n)
	return newOff, newIds, newWs
}
