package plan

import "time"

// DurationSource is a read-only view of a live duration distribution —
// satisfied by *obs.Histogram (Quantile returns seconds, Count the
// total observations). An interface keeps the planner free of an obs
// dependency and lets tests feed synthetic distributions.
type DurationSource interface {
	Quantile(q float64) float64
	Count() uint64
}

// The cost model's constants.
const (
	// searchOverhead is the flat estimate for the top-k scan itself —
	// small next to builds, but it keeps a zero-uncached estimate honest.
	searchOverhead = 2 * time.Millisecond
	// safety multiplies the estimate: planning exists to avoid blowing
	// deadlines, so predict pessimistically.
	safety = 2.0
	// buildQuantile is the histogram quantile used as the per-build cost.
	buildQuantile = 0.9
	// minSamples is the observation floor below which the live histogram
	// is considered uncalibrated.
	minSamples = 8
)

// CostModel predicts full-tier latency from a live build-duration
// distribution. It holds no state of its own beyond its source, so one
// instance per method is cheap and lock-free.
type CostModel struct {
	src DurationSource // may be nil (no live histogram)
}

// NewCostModel builds a model over src (nil allowed).
func NewCostModel(src DurationSource) *CostModel {
	return &CostModel{src: src}
}

// EstimateFull predicts the full-tier cost of a request needing
// `uncached` summarizer builds. ok=false means the model is
// uncalibrated — not enough live samples — and the caller should stay
// optimistic (attempt the full tier; the mid-flight degradation path
// catches a wrong guess).
func (m *CostModel) EstimateFull(uncached int) (est time.Duration, ok bool) {
	if uncached <= 0 {
		return searchOverhead, true
	}
	if m.src == nil || m.src.Count() < minSamples {
		return 0, false
	}
	perBuild := time.Duration(m.src.Quantile(buildQuantile) * float64(time.Second))
	// Builds are parallelized by the engine's worker pool but share
	// cores and the singleflight; a linear-in-uncached model overstates
	// large fan-outs, which is the safe direction for a planner.
	est = searchOverhead + time.Duration(uncached)*perBuild
	return time.Duration(float64(est) * safety), true
}
