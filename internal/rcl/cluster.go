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
	"math/rand"

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

// pairLabel is the grouping decision for one topic-node pair.
type pairLabel uint8

const (
	labelUnset   pairLabel = iota // no rule fired: treated as not grouped
	labelGrouped                  // Rule 1 or a successful Rule 3 coin flip
	labelSplit                    // Rule 2 or a failed Rule 3 coin flip
)

// grouping holds the pairwise GPLabel matrix over V_t, addressed by
// positions in the topic-node slice (not node IDs).
type grouping struct {
	nodes  []graph.NodeID
	labels []pairLabel // row-major |V_t|×|V_t|, symmetric
}

func (gr *grouping) at(i, j int) pairLabel { return gr.labels[i*len(gr.nodes)+j] }
func (gr *grouping) set(i, j int, l pairLabel) {
	gr.labels[i*len(gr.nodes)+j] = l
	gr.labels[j*len(gr.nodes)+i] = l
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

// intersectionSize counts common elements of two sorted slices.
func intersectionSize(a, b []graph.NodeID) int {
	i, j, count := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			count++
			i++
			j++
		}
	}
	return count
}

// pairDecision applies Rules 1–3 of Algorithm 1 to one topic-node pair:
// common is |V_{u,L} ∩ V_{v,L} ∩ V′|, sizeI/sizeJ the per-node sample
// reach sizes, inv = 1/|V′|. The rng is consumed exactly when Rule 3
// fires, so every grouping implementation replays the same sequence.
func pairDecision(common, sizeI, sizeJ int, inv float64, rng *rand.Rand) pairLabel {
	gPlus := float64(float64(common) * inv)
	gMinus := float64(float64(sizeI-common+sizeJ-common) * inv)
	gStar := 1 - gPlus - gMinus
	switch {
	// Rule 1: clearly in.
	case gPlus >= gMinus && gPlus >= gStar:
		return labelGrouped
	// Rule 2: clearly out.
	case gMinus >= gPlus && gMinus >= gStar:
		return labelSplit
	// Rule 3: undecided; group with probability GP+/(1−GP−).
	case gPlus >= gMinus && gPlus < gStar:
		pr := 0.0
		if 1-gMinus > 0 {
			pr = gPlus / (1 - gMinus)
		}
		if rng.Float64() <= pr {
			return labelGrouped
		}
		return labelSplit
	default:
		// GP* dominates and GP− > GP+: no rule fires; leave unset,
		// which the tree treats as not groupable.
		return labelUnset
	}
}

// buildGrouping runs Algorithm 1's pair-labeling over the topic nodes.
// sampleSize is |V′|; reach[i] is V_{u_i,L} ∩ V′ for topic node i. The
// O(|V_t|²) pair loop checks ctx once per row. This slice-based variant
// backs the unit tests; the summarization path uses buildGroupingSig.
func buildGrouping(ctx context.Context, nodes []graph.NodeID, reach [][]graph.NodeID, sampleSize int, rng *rand.Rand) (*grouping, error) {
	gr := &grouping{nodes: nodes, labels: make([]pairLabel, len(nodes)*len(nodes))}
	if sampleSize == 0 {
		return gr, nil // no evidence: nothing can be grouped
	}
	inv := 1.0 / float64(sampleSize)
	for i := range nodes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for j := i + 1; j < len(nodes); j++ {
			common := intersectionSize(reach[i], reach[j])
			gr.set(i, j, pairDecision(common, len(reach[i]), len(reach[j]), inv, rng))
		}
	}
	return gr, nil
}

// buildGroupingSig is buildGrouping over the scratch's bitset signatures:
// the same pair decisions, with each intersection an AND + popcount over
// `words` machine words instead of a sorted-slice merge.
func (s *Summarizer) buildGroupingSig(ctx context.Context, nodes []graph.NodeID, sampleSize, words int, rng *rand.Rand, sc *scratch) (*grouping, error) {
	gr := &grouping{nodes: nodes, labels: sc.ensureLabels(len(nodes))}
	if sampleSize == 0 {
		return gr, nil // no evidence: nothing can be grouped
	}
	inv := 1.0 / float64(sampleSize)
	for i := range nodes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sigI := sc.sigWords[i*words : (i+1)*words]
		for j := i + 1; j < len(nodes); j++ {
			common := sigCommon(sigI, sc.sigWords[j*words:(j+1)*words])
			gr.set(i, j, pairDecision(common, sc.counts[i], sc.counts[j], inv, rng))
		}
	}
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
	for i := 0; i < n; i++ { //pitlint:ignore ctxloop |V_t|-bounded singleton allocation pass; ctx is checked at the top of every SE-tree level below
		one := sc.allocSet(1)
		one[0] = i
		level = append(level, one)
	}
	all = append(all, level...)
	budget := maxNodes - n

	for len(level) > 1 && budget > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		next := nextBuf[:0]
	outer:
		for xi := 0; xi < len(level) && budget > 0; xi++ {
			sx := level[xi]
			// Right siblings share all but the last element.
			for yi := xi + 1; yi < len(level) && budget > 0; yi++ {
				sy := level[yi]
				if !sameButLast(sx, sy) {
					continue
				}
				add := sy[len(sy)-1]
				if !groupsWithAll(gr, sx, add) {
					continue
				}
				merged := sc.allocSet(len(sx) + 1)
				copy(merged, sx)
				merged[len(sx)] = add
				next = append(next, merged)
				all = append(all, merged)
				budget--
				if budget <= 0 {
					break outer
				}
			}
		}
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
// GPLabel = 1 with every member of the set.
func groupsWithAll(gr *grouping, s nodeSet, cand int) bool {
	for _, m := range s {
		if gr.at(m, cand) != labelGrouped {
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
	defer s.arenas.Put(sc)
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
	rng := rand.New(rand.NewSource(opts.Seed ^ int64(t)*0x9e3779b9))

	sampleSize := s.sampleNodes(opts.SampleRate, rng, sc)
	words, err := s.buildSignatures(ctx, vt, sampleSize, sc)
	if err != nil {
		return nil, err
	}
	gr, err := s.buildGroupingSig(ctx, vt, sampleSize, words, rng, sc)
	if err != nil {
		return nil, err
	}
	sets, err := setEnumerationTree(ctx, gr, opts.MaxTreeNodes, sc)
	if err != nil {
		return nil, err
	}
	return noOverlapGrouping(gr, sets, opts.CSize, sc), nil
}
