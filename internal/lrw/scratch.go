package lrw

// Pooled per-call scratch (PR 5). One LRW summarization needs three
// n-sized float vectors (the topic prior and the PageRank ping-pong
// state) — a block of topics the same three with Lanes interleaved
// lanes — Equation 5's propagation plan, an n-sized ranking permutation,
// dense position lookups for the migration matrix, and the matrix itself.
// Allocating those per topic made the offline warm-up allocation-bound, so
// they live in a sync.Pool: the Summarizer is documented safe for
// concurrent use, and a pool gives each in-flight summarization its own
// buffers while steady state allocates nothing.
//
// Position lookups are epoch-stamped: stamp[v] == epoch means v was
// registered in the current call, so reuse costs O(topic) instead of an
// O(n) clear or a map rebuild.

import (
	"sync"

	"repro/internal/graph"
)

type scratch struct {
	// Graph-node-sized vectors for scoresInto. A block's lanes are read
	// back one at a time through prev (see summarizeBlock).
	pStar, prev, cur []float64
	// The same three vectors for a block of up to Lanes topics, lanes
	// interleaved: prev4[v][j] is topic j's P_i(v).
	pStar4, prev4, cur4 [][Lanes]float64
	// Equation 5's topic-free half, built once per (graph, walks) and
	// shared by every topic this scratch summarizes; it stays valid across
	// Put (see putScratch).
	plan plan
	// order is the ranking buffer repNodesInto selects into.
	order []graph.NodeID
	// Epoch-stamped dense positions for migrateInto. Topic and
	// representative sets may overlap, so each has its own stamp array.
	topicStamp, repStamp []uint32
	topicPos, repPos     []int32
	topicEpoch, repEpoch uint32
	// m is the |V_t|×|reps| closeness matrix; weights its column sums.
	m, weights []float64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// putScratch returns sc to the pool with its propagation plan intact: the
// next topic of the same (graph, walks) pair — the common case by a factor
// of the topic count — finds it built.
func putScratch(sc *scratch) {
	scratchPool.Put(sc) //pitlint:ignore poolsafe plan.g/plan.walks deliberately persist across Put as the validity key of the propagation plan; a pool, unlike an engine field, lets the GC drop the plan with them; see plan.go
}

// ensureNodes sizes every graph-node-indexed buffer for n nodes.
func (sc *scratch) ensureNodes(n int) {
	if cap(sc.pStar) < n {
		sc.pStar = make([]float64, n)
		sc.prev = make([]float64, n)
		sc.cur = make([]float64, n)
		sc.order = make([]graph.NodeID, n)
		sc.topicStamp = make([]uint32, n)
		sc.repStamp = make([]uint32, n)
		sc.topicPos = make([]int32, n)
		sc.repPos = make([]int32, n)
	}
	sc.pStar = sc.pStar[:n]
	sc.prev = sc.prev[:n]
	sc.cur = sc.cur[:n]
	sc.order = sc.order[:n]
	sc.topicStamp = sc.topicStamp[:n]
	sc.repStamp = sc.repStamp[:n]
	sc.topicPos = sc.topicPos[:n]
	sc.repPos = sc.repPos[:n]
}

// ensureLanes sizes the block buffers for n nodes. They are separate from
// ensureNodes so a scratch that only ever summarizes lone topics never
// holds them.
func (sc *scratch) ensureLanes(n int) {
	sc.pStar4 = resize(sc.pStar4, n)
	sc.prev4 = resize(sc.prev4, n)
	sc.cur4 = resize(sc.cur4, n)
}

// nextTopicEpoch advances the topic-position epoch, handling uint32
// wraparound (a stale stamp must never equal a live epoch).
func (sc *scratch) nextTopicEpoch() uint32 {
	sc.topicEpoch++
	if sc.topicEpoch == 0 {
		clear(sc.topicStamp)
		sc.topicEpoch = 1
	}
	return sc.topicEpoch
}

func (sc *scratch) nextRepEpoch() uint32 {
	sc.repEpoch++
	if sc.repEpoch == 0 {
		clear(sc.repStamp)
		sc.repEpoch = 1
	}
	return sc.repEpoch
}

// ensureMatrix sizes the migration matrix (cells) and weights (reps)
// buffers and returns them zeroed.
func (sc *scratch) ensureMatrix(cells, reps int) (m, weights []float64) {
	if cap(sc.m) < cells {
		sc.m = make([]float64, cells)
	}
	if cap(sc.weights) < reps {
		sc.weights = make([]float64, reps)
	}
	sc.m = sc.m[:cells]
	sc.weights = sc.weights[:reps]
	clear(sc.m)
	clear(sc.weights)
	return sc.m, sc.weights
}
