// Package plan names the rungs of the serving stack's fidelity ladder.
// The paper's whole premise is that summaries trade a bounded amount of
// precision for large latency wins; the ladder (core.Ladder.Run) turns
// the single degradation step of the earlier serving work (deadline →
// materialized-only) into staged tiers that serve the best answer a
// failing request still has instead of failing (cf. "Topic-Based
// Influence Computation in Social Networks under Resource Constraints",
// arXiv 1801.02198):
//
//	full         — on-demand summarization + top-k search, the paper's
//	               exact online algorithm (Algorithms 10–11)
//	materialized — already-cached summaries only: partial but cheap
//	               (pure Γ lookups)
//	unavailable  — nothing cached: an explicit 503 + Retry-After, the
//	               only planned "no answer"
//
// Nothing is predicted: every planned request attempts the full tier,
// and only a real failure — the deadline firing, a build error — walks
// it down, in one place (core.Ladder.Run): the materialized rung is
// reached only by degrading. A caller that needs the exact answer says
// so per query (core.FidelityFull). The package holds the tier enum and
// nothing else; it keeps no answers, so every tier answers from the
// generation the request holds.
package plan

import "fmt"

// Tier is one rung of the fidelity ladder, ordered from highest
// fidelity (TierFull) to no answer at all (TierUnavailable).
type Tier int

const (
	// TierFull is the exact online search with on-demand summarization.
	TierFull Tier = iota
	// TierMaterialized restricts the search to already-cached summaries.
	TierMaterialized
	// TierUnavailable means no tier could produce an answer; the serving
	// layer maps it to 503 + Retry-After.
	TierUnavailable
)

// Tiers lists every tier in ladder order — handy for pre-registering
// metric children so tier counters expose before first use. It is an
// array, so len(Tiers) is a constant that sizes per-tier tables.
var Tiers = [...]Tier{TierFull, TierMaterialized, TierUnavailable}

// String returns the tier's wire name (the X-Pit-Tier header value and
// the pit_search_tier_total label).
func (t Tier) String() string {
	switch t {
	case TierFull:
		return "full"
	case TierMaterialized:
		return "materialized"
	case TierUnavailable:
		return "unavailable"
	default:
		return fmt.Sprintf("Tier(%d)", int(t))
	}
}
