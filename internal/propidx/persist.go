package propidx

// Persistence seams for the propagation index: Raw exposes the CSR
// backing arrays, Adopt rebuilds an Index around externally owned
// arrays (e.g. views into a read-only file mapping) without copying,
// validating their structure.

import (
	"fmt"

	"repro/internal/graph"
)

// Raw exposes the index's backing arrays for persistence: the target
// CSR offsets, source node runs, aggregated propagation values and
// potential marks. The slices alias internal storage and must be
// treated as immutable.
func (ix *Index) Raw() (theta float64, off []int32, src []graph.NodeID, prop []float64, potential []bool) {
	return ix.theta, ix.off, ix.src, ix.prop, ix.potential
}

// Adopt builds an Index over externally owned backing arrays without
// copying them. The caller transfers ownership: the arrays must stay
// live and unmodified for the index's lifetime (they may be views into
// a read-only file mapping — writing through them faults). Structural
// invariants are validated — parallel array sizes, θ in range, the CSR
// offsets monotone and closing exactly at the array length — so a
// corrupt artifact fails here instead of panicking inside a query.
func Adopt(theta float64, off []int32, src []graph.NodeID, prop []float64, potential []bool) (*Index, error) {
	if theta <= 0 || theta >= 1 {
		return nil, fmt.Errorf("propidx: adopt: corrupt theta %v", theta)
	}
	if len(off) < 1 {
		return nil, fmt.Errorf("propidx: adopt: missing offsets")
	}
	n := len(src)
	if len(prop) != n || len(potential) != n {
		return nil, fmt.Errorf("propidx: adopt: inconsistent array sizes (src %d, prop %d, potential %d)",
			n, len(prop), len(potential))
	}
	if off[0] != 0 {
		return nil, fmt.Errorf("propidx: adopt: offsets start at %d, want 0", off[0])
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			return nil, fmt.Errorf("propidx: adopt: offsets decrease at %d", i)
		}
	}
	if int(off[len(off)-1]) != n {
		return nil, fmt.Errorf("propidx: adopt: CSR ends at %d, want %d", off[len(off)-1], n)
	}
	return &Index{theta: theta, off: off, src: src, prop: prop, potential: potential}, nil
}
