package baselines

// BaseDijkstra: influence of a topic node on the query user is estimated
// from its maximum-probability path (computed with a Dijkstra variant that
// maximizes edge-weight products) plus a bounded number of distinct
// alternative paths obtained by sub-path replacement: every prefix of the
// best path is diverted through one alternative out-edge and completed
// with the already-known best completion to the user (§6.1). The sum of
// the distinct path probabilities approximates Definition 1's all-paths
// influence from below, which is why BaseDijkstra trails the other methods
// in precision (Figures 10–12).

import (
	"container/heap"
	"fmt"

	"repro/internal/graph"
	"repro/internal/prob"
	"repro/internal/search"
	"repro/internal/topics"
)

// Dijkstra is the BaseDijkstra ranker. It is not safe for concurrent use.
type Dijkstra struct {
	g     *graph.Graph
	space *topics.Space
	// MaxDeviations caps the number of sub-path replacements counted per
	// topic node.
	maxDeviations int

	dist []float64      // dist[u]: max path probability u ⇝ user
	succ []graph.NodeID // next hop of the best path, -1 at the user/unreached
}

// NewDijkstra returns a BaseDijkstra ranker. maxDeviations ≤ 0 defaults
// to 8.
func NewDijkstra(g *graph.Graph, space *topics.Space, maxDeviations int) (*Dijkstra, error) {
	if g == nil || space == nil {
		return nil, fmt.Errorf("baselines: nil graph or space")
	}
	if maxDeviations <= 0 {
		maxDeviations = 8
	}
	return &Dijkstra{
		g:             g,
		space:         space,
		maxDeviations: maxDeviations,
		dist:          make([]float64, g.NumNodes()),
		succ:          make([]graph.NodeID, g.NumNodes()),
	}, nil
}

// pqItem is a max-probability priority queue entry.
type pqItem struct {
	node graph.NodeID
	prob float64
}

type maxPQ []pqItem

func (q maxPQ) Len() int            { return len(q) }
func (q maxPQ) Less(i, j int) bool  { return q[i].prob > q[j].prob }
func (q maxPQ) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *maxPQ) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *maxPQ) Pop() interface{} {
	old := *q
	n := len(old)
	item := old[n-1]
	*q = old[:n-1]
	return item
}

// runDijkstra fills dist/succ with the best path probability from every
// node to user, walking reverse edges from the user (one run serves all
// topic nodes of the query).
func (d *Dijkstra) runDijkstra(user graph.NodeID) {
	for i := range d.dist {
		d.dist[i] = 0
		d.succ[i] = -1
	}
	d.dist[user] = 1
	pq := maxPQ{{node: user, prob: 1}}
	for pq.Len() > 0 {
		item := heap.Pop(&pq).(pqItem)
		if item.prob < d.dist[item.node] {
			continue // stale entry
		}
		in, inw := d.g.InNeighbors(item.node)
		for k, u := range in {
			cand := item.prob * inw[k]
			if cand > d.dist[u] {
				d.dist[u] = cand
				d.succ[u] = item.node
				heap.Push(&pq, pqItem{node: u, prob: cand})
			}
		}
	}
}

// pathInfluence estimates the influence of topic node src on the user:
// the best-path probability plus up to maxDeviations distinct sub-path
// replacements (divert at any best-path node through an alternative
// out-edge, complete with that neighbor's own best path).
func (d *Dijkstra) pathInfluence(src, user graph.NodeID) float64 {
	if src == user {
		// No length-0 path counts as influence (matches BaseMatrix,
		// which only aggregates walks of length ≥ 1).
		return 0
	}
	best := d.dist[src]
	if prob.IsZero(best) {
		return 0
	}
	total := best
	deviations := 0
	prefix := 1.0
	for x := src; x != user && x >= 0 && deviations < d.maxDeviations; {
		next := d.succ[x]
		nbrs, ws := d.g.OutNeighbors(x)
		for k, y := range nbrs {
			if y == next {
				continue // the best path itself
			}
			if prob.IsZero(d.dist[y]) {
				continue // neighbor cannot reach the user
			}
			dev := float64(prefix * ws[k] * d.dist[y])
			total += dev
			deviations++
			if deviations >= d.maxDeviations {
				break
			}
		}
		if next < 0 {
			break
		}
		w, ok := d.g.EdgeWeight(x, next)
		if !ok {
			break
		}
		prefix *= w
		x = next
	}
	return total
}

// Influence computes the BaseDijkstra influence estimate of topic t on the
// user. runDijkstra must have been called for this user.
func (d *Dijkstra) influenceAfterRun(t topics.TopicID, user graph.NodeID) float64 {
	vt := d.space.Nodes(t)
	if len(vt) == 0 {
		return 0
	}
	total := 0.0
	for _, u := range vt {
		total += d.pathInfluence(u, user)
	}
	return total / float64(len(vt))
}

// TopK implements Ranker. As in the paper, path computation is paid per
// topic: the max-probability Dijkstra runs once per q-related topic (the
// original runs it per topic *node*, which is infeasible at any scale and
// would only widen BaseDijkstra's deficit), so query cost grows with both
// the graph size and the number of q-related topics — the behaviour
// Figures 5–9 report.
func (d *Dijkstra) TopK(user int32, related []topics.TopicID, k int) ([]search.Result, error) {
	if !d.g.Valid(user) {
		return nil, fmt.Errorf("baselines: user %d outside graph", user)
	}
	scores := make([]float64, len(related))
	for i, t := range related {
		if !d.space.Valid(t) {
			return nil, fmt.Errorf("baselines: unknown topic %d", t)
		}
		d.runDijkstra(user)
		scores[i] = d.influenceAfterRun(t, user)
	}
	return rank(related, scores, k), nil
}
