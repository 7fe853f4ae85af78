// Package rcl implements RCL-A, the approximate random-clustering social
// summarization of Section 3 (Algorithms 1–5): topic nodes are grouped by
// their common L-hop reverse reachability against a degree-proportional
// sample V′, groups are enumerated with a set-enumeration tree, flattened
// into non-overlapping clusters, and each cluster is replaced by its
// closeness-centrality centroid carrying the cluster's share of the
// topic's local influence.
package rcl

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"

	"repro/internal/graph"
	"repro/internal/prob"
	"repro/internal/topics"
)

// Options configures the RCL-A summarizer.
type Options struct {
	// L is the hop bound for reachability (must match the walk index's L
	// or be smaller). Zero means: use the walk index's L.
	L int
	// CSize is the requested number of clusters C_Size (≥ 1). Groups are
	// capped at ⌈|V_t|/CSize⌉ members (Algorithm 3).
	CSize int
	// SampleRate is |V′|/|V| ∈ (0, 1]; nodes are sampled with probability
	// proportional to their degree (§3.1 / §6.6). Default 0.05.
	SampleRate float64
	// MaxTreeNodes caps the set-enumeration tree (Algorithm 2) so that
	// pathological grouping matrices stay polynomial. Default 8·|V_t|.
	MaxTreeNodes int
	// RefineCentroid enables the §3.2 optimization that hill-climbs each
	// selected centroid over its graph neighbors until closeness
	// centrality stops improving.
	RefineCentroid bool
	// RepCount, when positive, caps the materialized representative set:
	// only the RepCount heaviest centroids are kept (their weights are
	// not renormalized — the dropped mass is simply unrepresented, like
	// any summarization loss). The paper materializes a fixed number of
	// representatives per topic (1000–6000) for both methods.
	RepCount int
	// Seed drives the sampling of V′ and Rule 3's probabilistic grouping.
	Seed int64
}

func (o *Options) fill(walkL, vt int) {
	if o.L <= 0 || o.L > walkL {
		o.L = walkL
	}
	if o.CSize < 1 {
		o.CSize = 1
	}
	if o.SampleRate <= 0 || o.SampleRate > 1 {
		o.SampleRate = 0.05
	}
	if o.MaxTreeNodes <= 0 {
		o.MaxTreeNodes = 8 * vt
		if o.MaxTreeNodes < 64 {
			o.MaxTreeNodes = 64
		}
	}
}

// pairLabel is Algorithm 1's verdict on one topic-node pair before any
// coin is flipped.
type pairLabel uint8

const (
	labelUnset   pairLabel = iota // no rule fires: treated as not grouped
	labelGrouped                  // Rule 1: grouped
	labelSplit                    // Rule 2: not grouped
	labelRule3                    // Rule 3: grouped when one draw is ≤ its probability
)

// pairRules is Rules 1–3 of Algorithm 1 over one sample V′. A pair's
// label depends only on its shared count c = |V_{u,L} ∩ V_{v,L} ∩ V′|,
// the sum a+b of the two nodes' counts |V_{u,L} ∩ V′| + |V_{v,L} ∩ V′|,
// and |V′|, so the pair pass reads nothing else.
type pairRules struct {
	size int     // |V′|
	inv  float64 // 1/|V′|
}

func newPairRules(sampleSize int) pairRules {
	return pairRules{size: sampleSize, inv: 1.0 / float64(sampleSize)}
}

// classify labels a pair with shared count common and count sum sum, and
// gives Rule 3's grouping probability GP+/(1−GP−) with labelRule3. It
// draws nothing: decide flips Rule 3's coin.
func (r pairRules) classify(common, sum int) (pairLabel, float64) {
	if r.size == 0 {
		return labelUnset, 0 // no evidence: nothing can be grouped
	}
	gPlus := float64(float64(common) * r.inv)
	gMinus := float64(float64(sum-2*common) * r.inv)
	gStar := 1 - gPlus - gMinus
	switch {
	// Rule 1: clearly in.
	case gPlus >= gMinus && gPlus >= gStar:
		return labelGrouped, 0
	// Rule 2: clearly out.
	case gMinus >= gPlus && gMinus >= gStar:
		return labelSplit, 0
	// Rule 3: undecided; group with probability GP+/(1−GP−).
	case gPlus >= gMinus && gPlus < gStar:
		pr := 0.0
		if 1-gMinus > 0 {
			pr = gPlus / (1 - gMinus)
		}
		return labelRule3, pr
	default:
		// GP* dominates and GP− > GP+: no rule fires; leave unset,
		// which the tree treats as not groupable.
		return labelUnset, 0
	}
}

// zeroFires appends the sums s ≤ maxSum at which a pair sharing no
// sampled node is grouped or flips a coin: the count buckets the pair
// pass visits beside the pairs that share one.
func (r pairRules) zeroFires(maxSum int, fire []int) []int {
	for s := 0; s <= maxSum; s++ {
		if l, _ := r.classify(0, s); l == labelGrouped || l == labelRule3 {
			fire = append(fire, s)
		}
	}
	return fire
}

// decide reports whether a pair labelled l, with Rule 3 probability pr,
// is grouped: Rule 1 always, Rule 3 when one rng.Float64() is ≤ pr. The
// rng is consumed exactly when l is Rule 3.
func decide(l pairLabel, pr float64, rng *rand.Rand) bool {
	switch l {
	case labelGrouped:
		return true
	case labelRule3:
		return rng.Float64() <= pr
	}
	return false
}

// grouping is Algorithm 1's grouped relation (GPLabel = 1) over V_t,
// addressed by positions in the topic-node slice (not node IDs): the
// partners of i are to[off[i]:off[i+1]], the j > i it groups with,
// increasing. A pair outside it is split or unset, which the SE-tree
// treats alike.
type grouping struct {
	nodes []graph.NodeID
	off   []int32 // len(nodes)+1 row offsets into to
	to    []int32
}

// groups reports whether i < j are grouped.
func (gr *grouping) groups(i, j int) bool {
	_, ok := slices.BinarySearch(gr.to[gr.off[i]:gr.off[i+1]], int32(j))
	return ok
}

// sampleNodes draws a degree-proportional sample V′ of about rate·|V|
// nodes into the scratch's epoch-stamped membership arrays and returns
// |V′|. Zero-degree nodes are never sampled (they can neither reach nor
// be reached). The rng is consulted once per graph node regardless of
// outcome, so the consumption sequence is independent of the sample.
func (s *Summarizer) sampleNodes(rate float64, rng *rand.Rand, sc *scratch) int {
	epoch := sc.nextSampleEpoch()
	n := s.g.NumNodes()
	if n == 0 {
		return 0
	}
	totalDeg := s.totalDeg
	if prob.IsZero(totalDeg) {
		return 0
	}
	target := rate * float64(n)
	// Each node is included independently with probability proportional
	// to its degree, scaled so the expected sample size is target.
	scale := target / totalDeg
	size := 0
	for v := 0; v < n; v++ {
		p := scale * float64(s.degs[v])
		if p > 1 {
			p = 1
		}
		if rng.Float64() < p {
			sc.sampleStamp[v] = epoch
			sc.sampleIdx[v] = int32(size)
			size++
		}
	}
	return size
}

// buildSignatures packs V_{u,L} ∩ V′ for every topic node into word-wide
// bitsets over the dense sample positions, with popcounts in sc.counts.
// Returns the signature width in words. The per-node loop checks ctx
// every 256 nodes (the walk-index lists make it a heavy loop).
func (s *Summarizer) buildSignatures(ctx context.Context, vt []graph.NodeID, sampleSize int, sc *scratch) (int, error) {
	words := (sampleSize + 63) / 64
	sc.ensureSignatures(len(vt), words)
	if sampleSize == 0 {
		return 0, nil
	}
	epoch := sc.sampleEpoch
	for i, u := range vt {
		if i%256 == 0 {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
		}
		sig := sc.sigWords[i*words : (i+1)*words]
		c := 0
		for _, x := range s.walks.ReachL(u) {
			if sc.sampleStamp[x] == epoch {
				pos := uint32(sc.sampleIdx[x])
				if sig[pos>>6]&(1<<(pos&63)) == 0 {
					sig[pos>>6] |= 1 << (pos & 63)
					c++
				}
			}
		}
		sc.counts[i] = c
	}
	return words, nil
}

// buildGrouping runs Algorithm 1's pair labelling over the topic nodes
// and returns the grouped relation. Row i decides, in increasing j, only
// the pairs that can group or draw: those sharing a sampled node, found
// through the topic's postings, and those whose count bucket is grouped
// or Rule 3 at c = 0 (zeroFires). Every other pair shares nothing and is
// split or unset, so skipping it changes no label and no draw: the rng
// is consumed exactly as a pass over every pair consumes it. The pass
// checks ctx once per row.
func buildGrouping(ctx context.Context, nodes []graph.NodeID, sampleSize, words int, rng *rand.Rand, sc *scratch) (*grouping, error) {
	n := len(nodes)
	rules := newPairRules(sampleSize)
	maxCount := sc.indexSignatures(n, words, sampleSize)
	sc.fire = rules.zeroFires(2*maxCount, sc.fire[:0])
	sc.groupOff = resize(sc.groupOff, n+1)
	sc.groupOff[0] = 0
	gr := &grouping{nodes: nodes, off: sc.groupOff, to: sc.groupTo[:0]}
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sc.markPartners(i, words)
		a := sc.counts[i]
		for w := (i + 1) >> 6; w < len(sc.marks); w++ {
			for x := sc.marks[w]; x != 0; x &= x - 1 {
				j := w<<6 | bits.TrailingZeros64(x)
				l, pr := rules.classify(int(sc.shared[j]), a+sc.counts[j])
				sc.shared[j] = 0
				if decide(l, pr, rng) {
					gr.to = append(gr.to, int32(j))
				}
			}
			sc.marks[w] = 0
		}
		gr.off[i+1] = int32(len(gr.to))
	}
	sc.groupTo = gr.to
	return gr, nil
}

// nodeSet is one candidate group in the set-enumeration tree, stored as
// sorted positions into grouping.nodes.
type nodeSet []int

// setEnumerationTree grows groupable node sets level by level, exactly the
// sibling-merge expansion of Algorithm 2: a set is extended with the
// distinguishing element of a right sibling when that element groups
// (GPLabel = 1) with every member. The total number of materialized sets is
// capped at maxNodes; enumeration is best-first in input order so the cap
// degrades gracefully to smaller groups rather than failing. A non-nil sc
// supplies the set backing and header buffers; nil allocates per call.
func setEnumerationTree(ctx context.Context, gr *grouping, maxNodes int, sc *scratch) ([]nodeSet, error) {
	n := len(gr.nodes)
	var level, nextBuf, all []nodeSet
	if sc != nil {
		sc.resetSets()
		level, nextBuf, all = sc.hdrA[:0], sc.hdrB[:0], sc.sets[:0]
	}
	ones := sc.allocSet(n)
	for i := range ones {
		ones[i] = i
		level = append(level, ones[i:i+1:i+1])
	}
	all = append(all, level...)
	budget := maxNodes - n

	for len(level) > 1 && budget > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var next []nodeSet
		if len(level[0]) == 1 {
			next = appendPairs(nextBuf[:0], gr, budget, sc)
		} else {
			next = appendMerges(nextBuf[:0], level, gr, budget, sc)
		}
		all = append(all, next...)
		budget -= len(next)
		// Ping-pong the header buffers: the finished level's backing
		// becomes next round's append target.
		level, nextBuf = next, level[:0]
	}
	if sc != nil {
		// Keep the grown buffers for the next Cluster call. all may have
		// outgrown sc.sets' backing; the headers are interchangeable.
		sc.sets = all[:0]
		sc.hdrA, sc.hdrB = level[:0], nextBuf[:0]
	}
	return all, nil
}

// appendPairs is the SE-tree's second level. Every singleton is every
// other's sibling, so merging them in order yields the grouped pairs in
// (i, j) order: the first budget of them are the level.
func appendPairs(next []nodeSet, gr *grouping, budget int, sc *scratch) []nodeSet {
	k := min(budget, len(gr.to))
	flat := sc.allocSet(2 * k)
	for p, i := 0, 0; p < k; p++ {
		for int(gr.off[i+1]) <= p {
			i++
		}
		pair := flat[2*p : 2*p+2 : 2*p+2]
		pair[0], pair[1] = i, int(gr.to[p])
		next = append(next, pair)
	}
	return next
}

// appendMerges is one SE-tree level past the pairs, at most budget sets.
// A level lists each parent's children together and in order, so a set's
// right siblings directly follow it, and the scan stops at the first set
// that is not one.
func appendMerges(next, level []nodeSet, gr *grouping, budget int, sc *scratch) []nodeSet {
	for xi, sx := range level {
		for _, sy := range level[xi+1:] {
			if !sameButLast(sx, sy) {
				break
			}
			add := sy[len(sy)-1]
			if !groupsWithAll(gr, sx, add) {
				continue
			}
			merged := sc.allocSet(len(sx) + 1)
			copy(merged, sx)
			merged[len(sx)] = add
			next = append(next, merged)
			if len(next) == budget {
				return next
			}
		}
	}
	return next
}

// sameButLast reports whether a and b share their first len−1 elements
// (they are siblings in the SE-tree) and a's last element precedes b's.
func sameButLast(a, b nodeSet) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a)-1; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return a[len(a)-1] < b[len(b)-1]
}

// groupsWithAll is CHECK_GROUPING: the candidate element must have
// GPLabel = 1 with every member of the set (each member precedes it).
func groupsWithAll(gr *grouping, s nodeSet, cand int) bool {
	for _, m := range s {
		if !gr.groups(m, cand) {
			return false
		}
	}
	return true
}

// noOverlapGrouping is Algorithm 3: repeatedly pick the largest enumerated
// set not exceeding ⌈|V_t|/CSize⌉, commit it as a group, and delete its
// members from all remaining sets. Leftover nodes become singleton groups
// (Rule 4: every node appears in exactly one group). The returned groups
// are caller-owned, carved from one flat backing (Rule 4 means their
// total length is exactly |V_t|); a non-nil sc supplies the sort and
// membership scratch.
func noOverlapGrouping(gr *grouping, sets []nodeSet, cSize int, sc *scratch) [][]graph.NodeID {
	n := len(gr.nodes)
	capSize := (n + cSize - 1) / cSize
	if capSize < 1 {
		capSize = 1
	}

	// Largest-first, ties broken by enumeration (leftmost) order, which
	// mirrors the leftmost-child walk of Algorithm 3. The key is the set
	// length alone — ties everywhere — so the order is produced by a
	// stable counting sort over lengths: the exact permutation a stable
	// comparison sort would give, with no comparator calls.
	maxLen := 0
	for _, s := range sets {
		if len(s) > maxLen {
			maxLen = len(s)
		}
	}
	var order, buckets []int
	var taken []bool
	if sc != nil {
		if cap(sc.order) < len(sets) {
			sc.order = make([]int, len(sets))
		}
		order = sc.order[:len(sets)]
		if cap(sc.buckets) < maxLen+1 {
			sc.buckets = make([]int, maxLen+1)
		}
		buckets = sc.buckets[:maxLen+1]
		clear(buckets)
		if cap(sc.taken) < n {
			sc.taken = make([]bool, n)
		}
		taken = sc.taken[:n]
		clear(taken)
	} else {
		order = make([]int, len(sets))
		buckets = make([]int, maxLen+1)
		taken = make([]bool, n)
	}
	for _, s := range sets {
		buckets[len(s)]++
	}
	start := 0
	for l := maxLen; l >= 0; l-- {
		c := buckets[l]
		buckets[l] = start
		start += c
	}
	for i, s := range sets {
		order[buckets[len(s)]] = i
		buckets[len(s)]++
	}

	flat := make([]graph.NodeID, 0, n)
	var groups [][]graph.NodeID
	for _, si := range order {
		s := sets[si]
		if len(s) > capSize {
			continue // pruned exactly like r.removeNode(s) for oversized sets
		}
		start := len(flat)
		for _, m := range s {
			if !taken[m] {
				taken[m] = true
				flat = append(flat, gr.nodes[m])
			}
		}
		if len(flat) == start {
			continue
		}
		groups = append(groups, flat[start:len(flat):len(flat)])
	}
	for m := 0; m < n; m++ {
		if !taken[m] {
			start := len(flat)
			flat = append(flat, gr.nodes[m])
			groups = append(groups, flat[start:len(flat):len(flat)])
		}
	}
	return groups
}

// Cluster runs Algorithm 1 end to end for topic t and returns the
// non-overlapping topic node groups. ctx is checked between and inside the
// clustering stages; a done context aborts with ctx.Err().
func (s *Summarizer) Cluster(ctx context.Context, t topics.TopicID) ([][]graph.NodeID, error) {
	sc := s.arena()
	defer s.release(sc)
	return s.cluster(ctx, t, sc)
}

// cluster is Cluster on the caller's arena; the groups it returns are
// caller-owned (noOverlapGrouping), so they outlive the arena's next use.
func (s *Summarizer) cluster(ctx context.Context, t topics.TopicID, sc *scratch) ([][]graph.NodeID, error) {
	if !s.space.Valid(t) {
		return nil, fmt.Errorf("rcl: unknown topic %d", t)
	}
	vt := s.space.Nodes(t)
	if len(vt) == 0 {
		return nil, nil
	}
	opts := s.opts
	opts.fill(s.walks.L, len(vt))
	rng := sc.reseed(opts.Seed ^ int64(t)*0x9e3779b9)

	sampleSize := s.sampleNodes(opts.SampleRate, rng, sc)
	words, err := s.buildSignatures(ctx, vt, sampleSize, sc)
	if err != nil {
		return nil, err
	}
	gr, err := buildGrouping(ctx, vt, sampleSize, words, rng, sc)
	if err != nil {
		return nil, err
	}
	sets, err := setEnumerationTree(ctx, gr, opts.MaxTreeNodes, sc)
	if err != nil {
		return nil, err
	}
	return noOverlapGrouping(gr, sets, opts.CSize, sc), nil
}
