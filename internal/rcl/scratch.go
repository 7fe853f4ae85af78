package rcl

// Scratch arena. RCL-A's clustering touches three kinds of state
// per topic: graph-node-sized lookups (sample membership, centroid votes,
// centrality pending sets and BFS marks), topic-sized reachability
// signatures with the pair pass's postings and grouped relation, and the
// SE-tree's candidate sets. All of it lives here,
// epoch-stamped where membership must reset in O(1), so an arena re-used
// across a corpus allocates only what its results own. An arena serves
// one call at a time: each Summarize or Cluster takes one from its
// Summarizer's pool and puts it back when done, so concurrent calls never
// share one.

import (
	"math/bits"
	"math/rand"
	"slices"

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
	// The topic's RNG: reseeded per topic, it replays the stream a fresh
	// rand.New(rand.NewSource(seed)) would, without a new 4.9 KB source.
	rng *rand.Rand
	// The pair pass's index over the signatures (indexSignatures):
	// postRows[postOff[p]:postOff[p+1]] are the rows holding sample
	// position p and countRows[countOff[b]:countOff[b+1]] the rows of
	// popcount b, each increasing; postNext[p] is the first of p's rows
	// not yet passed. fire lists the count sums decided at c = 0.
	postOff, postRows, postNext []int32
	countOff, countRows         []int32
	fire                        []int
	// Row i's partners: marks is a bitset over the rows, shared[j] the
	// count row j shares with row i (zero outside a row's pass).
	marks  []uint64
	shared []int32
	// The grouped relation's backing (grouping.off and grouping.to).
	groupOff, groupTo []int32
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
	sc.counts = resize(sc.counts, vt)
	clear(sc.counts)
}

// reseed returns the arena's RNG seeded with seed.
func (sc *scratch) reseed(seed int64) *rand.Rand {
	if sc.rng == nil {
		sc.rng = rand.New(rand.NewSource(seed))
	} else {
		sc.rng.Seed(seed)
	}
	return sc.rng
}

// indexSignatures readies the pair pass over the n signatures of words
// words each: it fills the postings and count buckets, clears the row
// marks and shared counts, and returns the largest popcount. Both
// indexes are counting sorts that visit the rows in order, so every list
// increases.
func (sc *scratch) indexSignatures(n, words, sampleSize int) int {
	sc.postOff = resize(sc.postOff, sampleSize+1)
	clear(sc.postOff)
	maxCount := 0
	for i := 0; i < n; i++ {
		maxCount = max(maxCount, sc.counts[i])
		for w, x := range sc.sigWords[i*words : (i+1)*words] {
			for ; x != 0; x &= x - 1 {
				sc.postOff[w<<6|bits.TrailingZeros64(x)+1]++
			}
		}
	}
	for p := 0; p < sampleSize; p++ {
		sc.postOff[p+1] += sc.postOff[p]
	}
	sc.postRows = resize(sc.postRows, int(sc.postOff[sampleSize]))
	sc.postNext = resize(sc.postNext, sampleSize)
	copy(sc.postNext, sc.postOff)
	for i := 0; i < n; i++ {
		for w, x := range sc.sigWords[i*words : (i+1)*words] {
			for ; x != 0; x &= x - 1 {
				p := w<<6 | bits.TrailingZeros64(x)
				sc.postRows[sc.postNext[p]] = int32(i)
				sc.postNext[p]++
			}
		}
	}
	copy(sc.postNext, sc.postOff)

	sc.countOff = resize(sc.countOff, maxCount+2)
	clear(sc.countOff)
	for _, c := range sc.counts[:n] {
		sc.countOff[c+1]++
	}
	for b := 0; b <= maxCount; b++ {
		sc.countOff[b+1] += sc.countOff[b]
	}
	sc.countRows = resize(sc.countRows, n)
	for i, c := range sc.counts[:n] {
		sc.countRows[sc.countOff[c]] = int32(i)
		sc.countOff[c]++
	}
	// Each countOff[b] now ends bucket b: shift them back to starts.
	copy(sc.countOff[1:], sc.countOff[:maxCount+1])
	sc.countOff[0] = 0

	sc.marks = resize(sc.marks, (n+63)/64)
	clear(sc.marks)
	sc.shared = resize(sc.shared, n)
	clear(sc.shared)
	return maxCount
}

// markPartners marks the rows j > i the pair pass decides for row i —
// those sharing a sample position with it, and those whose count sum
// with it is in sc.fire — and adds to shared[j] each position row j
// shares with row i.
func (sc *scratch) markPartners(i, words int) {
	for w, x := range sc.sigWords[i*words : (i+1)*words] {
		for ; x != 0; x &= x - 1 {
			p := w<<6 | bits.TrailingZeros64(x)
			sc.postNext[p]++ // past row i itself
			for _, j := range sc.postRows[sc.postNext[p]:sc.postOff[p+1]] {
				sc.marks[j>>6] |= 1 << (j & 63)
				sc.shared[j]++
			}
		}
	}
	a := sc.counts[i]
	for _, s := range sc.fire {
		b := s - a
		if b < 0 {
			continue
		}
		if b+1 >= len(sc.countOff) {
			break // fire increases: no row has a larger count
		}
		rows := sc.countRows[sc.countOff[b]:sc.countOff[b+1]]
		k, _ := slices.BinarySearch(rows, int32(i+1))
		for _, j := range rows[k:] {
			sc.marks[j>>6] |= 1 << (j & 63)
		}
	}
}

// resize returns s with length n, reallocating only past its capacity;
// the contents are whatever s held.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
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
