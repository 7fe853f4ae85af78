package rcl

// Scratch arena. RCL-A's clustering touches three kinds of state
// per topic: graph-node-sized lookups (sample membership, centroid votes,
// centrality pending sets and BFS marks), topic-sized reachability
// signatures, and the SE-tree's candidate sets. All of it lives here,
// epoch-stamped where membership must reset in O(1), so an arena re-used
// across a corpus allocates only what its results own. An arena serves
// one call at a time: each Summarize or Cluster takes one from its
// Summarizer's pool and puts it back when done, so concurrent calls never
// share one.

import (
	"math/bits"

	"repro/internal/graph"
)

type scratch struct {
	// Degree-proportional sample V′: stamp[v] == sampleEpoch means v is
	// sampled this Cluster call; sampleIdx[v] is its dense bit position.
	sampleStamp []uint32
	sampleIdx   []int32
	sampleEpoch uint32
	// Reachability signatures: one word-packed bitset over V′ per topic
	// node (sigWords is row-major, words words per row), plus popcounts.
	sigWords []uint64
	counts   []int
	// Grouping-matrix backing (|V_t|² pair labels).
	labels []pairLabel
	// SE-tree backing: sets are carved out of setInts; the header slices
	// ping-pong between levels.
	setInts    []int
	sets       []nodeSet
	hdrA, hdrB []nodeSet
	// noOverlapGrouping state (buckets backs the counting sort by size).
	order   []int
	taken   []bool
	buckets []int
	// Centroid voting (Algorithm 4).
	voteStamp  []uint32
	votes      []int32
	voteNodes  []graph.NodeID
	voteEpoch  uint32
	candidates []graph.NodeID
	// Closeness-centrality pending set.
	pendStamp []uint32
	pendEpoch uint32
	// Closeness-centrality BFS: seenStamp[v] == seenEpoch means v was
	// queued this traversal.
	seenStamp []uint32
	seenEpoch uint32
	queue     []graph.NodeID
}

// ensureNodes sizes every graph-node-indexed buffer for n nodes.
func (sc *scratch) ensureNodes(n int) {
	if cap(sc.sampleStamp) < n {
		sc.sampleStamp = make([]uint32, n)
		sc.sampleIdx = make([]int32, n)
		sc.voteStamp = make([]uint32, n)
		sc.votes = make([]int32, n)
		sc.pendStamp = make([]uint32, n)
		sc.seenStamp = make([]uint32, n)
	}
	sc.sampleStamp = sc.sampleStamp[:n]
	sc.sampleIdx = sc.sampleIdx[:n]
	sc.voteStamp = sc.voteStamp[:n]
	sc.votes = sc.votes[:n]
	sc.pendStamp = sc.pendStamp[:n]
	sc.seenStamp = sc.seenStamp[:n]
}

// nextSampleEpoch advances the sample epoch, clearing stamps on uint32
// wraparound so a stale stamp can never equal a live epoch.
func (sc *scratch) nextSampleEpoch() uint32 {
	sc.sampleEpoch++
	if sc.sampleEpoch == 0 {
		clear(sc.sampleStamp)
		sc.sampleEpoch = 1
	}
	return sc.sampleEpoch
}

func (sc *scratch) nextVoteEpoch() uint32 {
	sc.voteEpoch++
	if sc.voteEpoch == 0 {
		clear(sc.voteStamp)
		sc.voteEpoch = 1
	}
	return sc.voteEpoch
}

func (sc *scratch) nextPendEpoch() uint32 {
	sc.pendEpoch++
	if sc.pendEpoch == 0 {
		clear(sc.pendStamp)
		sc.pendEpoch = 1
	}
	return sc.pendEpoch
}

func (sc *scratch) nextSeenEpoch() uint32 {
	sc.seenEpoch++
	if sc.seenEpoch == 0 {
		clear(sc.seenStamp)
		sc.seenEpoch = 1
	}
	return sc.seenEpoch
}

// ensureSignatures sizes and zeroes the signature matrix (vt rows of
// words words) and the popcount row.
func (sc *scratch) ensureSignatures(vt, words int) {
	need := vt * words
	if cap(sc.sigWords) < need {
		sc.sigWords = make([]uint64, need)
	}
	sc.sigWords = sc.sigWords[:need]
	clear(sc.sigWords)
	if cap(sc.counts) < vt {
		sc.counts = make([]int, vt)
	}
	sc.counts = sc.counts[:vt]
}

// ensureLabels sizes and zeroes the |V_t|² grouping matrix backing
// (labelUnset is the zero value, and an unset pair must stay unset).
func (sc *scratch) ensureLabels(vt int) []pairLabel {
	need := vt * vt
	if cap(sc.labels) < need {
		sc.labels = make([]pairLabel, need)
	}
	sc.labels = sc.labels[:need]
	clear(sc.labels)
	return sc.labels
}

// allocSet carves a nodeSet of the given size out of the arena's int
// backing. When the current chunk runs out mid-call the arena moves to a
// bigger chunk; sets already handed out keep referencing the old one,
// which the GC retires once the caller drops them. A nil scratch (the
// test-only path) falls back to plain allocation.
func (sc *scratch) allocSet(size int) nodeSet {
	if sc == nil {
		return make(nodeSet, size)
	}
	if len(sc.setInts)+size > cap(sc.setInts) {
		newCap := 2 * cap(sc.setInts)
		if newCap < 1024 {
			newCap = 1024
		}
		if newCap < size {
			newCap = size
		}
		sc.setInts = make([]int, 0, newCap)
	}
	off := len(sc.setInts)
	sc.setInts = sc.setInts[: off+size : cap(sc.setInts)]
	return sc.setInts[off : off+size : off+size]
}

// resetSets rewinds the set arena for a new Cluster call.
func (sc *scratch) resetSets() {
	if sc == nil {
		return
	}
	sc.setInts = sc.setInts[:0]
}

// sigCommon counts the common bits of two equal-length signatures:
// |V_{u,L} ∩ V_{v,L} ∩ V′| as a word-packed AND + popcount.
func sigCommon(a, b []uint64) int {
	c := 0
	for k := range a {
		c += bits.OnesCount64(a[k] & b[k])
	}
	return c
}
