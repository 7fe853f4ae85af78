package search

// Result diversification. The paper builds LRW-A on DivRank's
// prestige-with-diversity idea for *representative selection*; this file
// applies the same principle to the *result list*: when several q-related
// topics are carried by nearly the same representative users (common for
// variants of one tag discussed by one community), a feed that shows all
// of them wastes its k slots. Diversify re-ranks greedily, trading
// influence against novelty of each topic's representative set — maximal
// marginal relevance over representative overlap.

import (
	"repro/internal/graph"
	"repro/internal/prob"
	"repro/internal/summary"
	"repro/internal/topics"
)

// Diversify re-orders ranked results so that each successive topic
// maximizes score − lambda·score·overlap, where overlap ∈ [0,1] is the
// weighted Jaccard similarity between the candidate's representative set
// and the union of the already-selected topics' representatives.
// lambda = 0 returns the input order; lambda = 1 fully discounts a topic
// whose representatives are all already covered. Summaries are matched to
// results by topic ID; results without a summary keep overlap 0.
func Diversify(results []Result, summaries []summary.Summary, lambda float64, k int) []Result {
	if lambda <= 0 || len(results) <= 1 {
		return clampK(results, k)
	}
	if lambda > 1 {
		lambda = 1
	}
	if k <= 0 || k > len(results) {
		k = len(results)
	}
	byTopic := make(map[topics.TopicID]summary.Summary, len(summaries))
	for _, s := range summaries {
		byTopic[s.Topic] = s
	}

	remaining := append([]Result(nil), results...)
	covered := map[graph.NodeID]bool{}
	out := make([]Result, 0, k)
	for len(out) < k && len(remaining) > 0 {
		bestIdx, bestScore := 0, -1.0
		for i, r := range remaining {
			adjusted := float64(r.Score * (1 - float64(lambda*overlapWith(byTopic[r.Topic], covered))))
			if adjusted > bestScore || (prob.ApproxEq(adjusted, bestScore, 0) && r.Topic < remaining[bestIdx].Topic) {
				bestIdx, bestScore = i, adjusted
			}
		}
		chosen := remaining[bestIdx]
		out = append(out, chosen)
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		for _, rep := range byTopic[chosen.Topic].Reps {
			covered[rep.Node] = true
		}
	}
	return out
}

// overlapWith returns the weight fraction of s's representatives already
// covered.
func overlapWith(s summary.Summary, covered map[graph.NodeID]bool) float64 {
	if s.Len() == 0 || len(covered) == 0 {
		return 0
	}
	total, hit := 0.0, 0.0
	for _, rep := range s.Reps {
		total += rep.Weight
		if covered[rep.Node] {
			hit += rep.Weight
		}
	}
	if prob.IsZero(total) {
		return 0
	}
	return hit / total
}

func clampK(results []Result, k int) []Result {
	if k > 0 && k < len(results) {
		return results[:k]
	}
	return results
}

// CoverageNodes returns how many distinct representative users the ranked
// results touch — the diversity metric Diversify improves.
func CoverageNodes(results []Result, summaries []summary.Summary) int {
	byTopic := make(map[topics.TopicID]summary.Summary, len(summaries))
	for _, s := range summaries {
		byTopic[s.Topic] = s
	}
	seen := map[graph.NodeID]bool{}
	for _, r := range results {
		for _, rep := range byTopic[r.Topic].Reps {
			seen[rep.Node] = true
		}
	}
	return len(seen)
}
