package lrw

// Pooled per-call scratch (PR 5). One LRW summarization needs three
// n-sized vectors of Lanes interleaved floats (the topic priors and the
// PageRank ping-pong state of a block of topics), one lane's scores copied
// out, Equation 5's propagation plan, an n-sized ranking permutation,
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
	// Graph-node-sized vectors for scoresLanes, lanes interleaved:
	// prev[v][j] is topic j's P_i(v).
	pStar, prev, cur [][Lanes]float64
	// scores is one lane copied out of prev, the vector selectReps and
	// migrateInto read (see summarizeLanes).
	scores []float64
	// Equation 5's topic-free half, built once per (graph, walks) and
	// shared by every topic this scratch summarizes; it stays valid across
	// Put (see putScratch).
	plan plan
	// order is the ranking buffer selectReps selects into.
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
	if cap(sc.scores) < n {
		sc.scores = make([]float64, n)
		sc.order = make([]graph.NodeID, n)
		sc.topicStamp = make([]uint32, n)
		sc.repStamp = make([]uint32, n)
		sc.topicPos = make([]int32, n)
		sc.repPos = make([]int32, n)
	}
	sc.scores = sc.scores[:n]
	sc.order = sc.order[:n]
	sc.topicStamp = sc.topicStamp[:n]
	sc.repStamp = sc.repStamp[:n]
	sc.topicPos = sc.topicPos[:n]
	sc.repPos = sc.repPos[:n]
	sc.pStar = resize(sc.pStar, n)
	sc.prev = resize(sc.prev, n)
	sc.cur = resize(sc.cur, n)
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
