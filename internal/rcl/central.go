package rcl

// Centroid selection (Algorithm 4, SELECT_CENTRAL) with the closeness
// centrality of Definition 3. A candidate set is formed by voting: every
// node that can reach a group member within L hops (per the walk index's
// I_L lists) receives one vote per member it reaches; the top-voted nodes
// are scored by closeness centrality over the group and the best becomes
// the group's central node.

import (
	"slices"

	"repro/internal/graph"
)

// centrality computes the closeness centrality of candidate v for the
// topic node group (Definition 3): |V_g| / Σ_j distance(v, v_j). Distances
// are minimal directed hop counts bounded by maxHops; unreachable members
// are penalized with maxHops+1 so that candidates covering more of the
// group always win. A candidate that reaches no member has centrality
// |V_g|/(|V_g|·(maxHops+1)), the floor. It runs on the scratch arena sc:
// the pending set is an epoch-stamped array and the bounded BFS runs on
// sc's own seen stamps and queue in graph.Traverser's visit order, so
// nothing is allocated. TestCentralityMatchesArena pins it bit for bit
// to a map-based graph.Traverser oracle.
func (s *Summarizer) centrality(v graph.NodeID, group []graph.NodeID, maxHops int, sc *scratch) float64 {
	if len(group) == 0 {
		return 0
	}
	epoch := sc.nextPendEpoch()
	remaining := 0
	for _, m := range group {
		if sc.pendStamp[m] != epoch {
			sc.pendStamp[m] = epoch
			remaining++
		}
	}
	totalDist := 0
	if sc.pendStamp[v] == epoch {
		sc.pendStamp[v] = 0 // distance(v, v) = 0 contributes nothing
		remaining--
	}
	if remaining > 0 {
		seen := sc.nextSeenEpoch()
		sc.seenStamp[v] = seen
		q := append(sc.queue[:0], v)
		// d is the hop distance of q[head:levelEnd]; a member found at d
		// adds d, and the walk stops once every member is found.
		for head, levelEnd, d := 0, 1, 0; head < len(q) && remaining > 0; head++ {
			if head == levelEnd {
				d++
				levelEnd = len(q)
				if d > maxHops {
					break
				}
			}
			u := q[head]
			if sc.pendStamp[u] == epoch {
				sc.pendStamp[u] = 0
				totalDist += d
				remaining--
			}
			if d == maxHops {
				continue // children would exceed the bound
			}
			out, _ := s.g.OutNeighbors(u)
			for _, w := range out {
				if sc.seenStamp[w] != seen {
					sc.seenStamp[w] = seen
					q = append(q, w)
				}
			}
		}
		sc.queue = q
	}
	totalDist += remaining * (maxHops + 1)
	if totalDist == 0 {
		return float64(len(group))
	}
	return float64(len(group)) / float64(totalDist)
}

// selectCentral is Algorithm 4: returns the central node of the group, or
// -1 for an empty group. The walk-index I_L lists supply the voters; the
// candidate set is every node achieving the maximum vote count. The
// centrality bound is 2L per §3.2 ("the maximal distance of any two nodes
// in the group is limited to 2L").
func (s *Summarizer) selectCentral(group []graph.NodeID, sc *scratch) graph.NodeID {
	if len(group) == 0 {
		return -1
	}
	if len(group) == 1 {
		// A singleton group is ideally represented by itself.
		return group[0]
	}
	// Tally votes in the epoch-stamped arena: voteNodes records which
	// entries are live this call, so reuse is O(votes cast).
	epoch := sc.nextVoteEpoch()
	voteNodes := sc.voteNodes[:0]
	cast := func(v graph.NodeID) {
		if sc.voteStamp[v] != epoch {
			sc.voteStamp[v] = epoch
			sc.votes[v] = 0
			voteNodes = append(voteNodes, v)
		}
		sc.votes[v]++
	}
	for _, m := range group {
		// Group members vote for themselves too: a member that reaches
		// the others is the natural centroid.
		cast(m)
		for _, voter := range s.walks.ReachL(m) {
			cast(voter)
		}
	}
	sc.voteNodes = voteNodes // keep the grown buffer
	maxVotes := int32(0)
	for _, v := range voteNodes {
		if sc.votes[v] > maxVotes {
			maxVotes = sc.votes[v]
		}
	}
	candidates := sc.candidates[:0]
	for _, v := range voteNodes {
		if sc.votes[v] == maxVotes {
			candidates = append(candidates, v)
		}
	}
	sc.candidates = candidates
	slices.Sort(candidates)

	opts := s.opts
	opts.fill(s.walks.L, len(group))
	best := candidates[0]
	bestScore := -1.0
	for _, cand := range candidates {
		score := s.centrality(cand, group, 2*opts.L, sc)
		if score > bestScore {
			best, bestScore = cand, score
		}
	}
	if opts.RefineCentroid {
		best, _ = s.refineCentroid(best, bestScore, group, 2*opts.L, sc)
	}
	return best
}

// refineCentroid implements the §3.2 optimization: "the identified central
// node from the candidate set can be further adjusted by probing the
// nearest neighbor nodes until the new centroid cannot be increased" —
// hill climbing over graph neighbors on the closeness-centrality surface.
// Iterations are bounded to the group size so pathological plateaus
// terminate.
func (s *Summarizer) refineCentroid(best graph.NodeID, bestScore float64, group []graph.NodeID, maxHops int, sc *scratch) (graph.NodeID, float64) {
	for step := 0; step <= len(group); step++ {
		improved := false
		out, _ := s.g.OutNeighbors(best)
		in, _ := s.g.InNeighbors(best)
		for _, nbrs := range [][]graph.NodeID{out, in} {
			for _, cand := range nbrs {
				if score := s.centrality(cand, group, maxHops, sc); score > bestScore {
					best, bestScore = cand, score
					improved = true
				}
			}
		}
		if !improved {
			break
		}
	}
	return best, bestScore
}
