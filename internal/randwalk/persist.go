package randwalk

// Persistence seams for the walk index. The index is the costly
// once-per-dataset artifact (§6.6 reports ~7 hours at full scale), so
// internal/storage serializes its flat backing arrays directly — Raw
// exposes them, Adopt rebuilds an Index around externally owned arrays
// (e.g. slices reinterpreted out of a read-only file mapping) without
// copying, validating their structure.

import (
	"fmt"

	"repro/internal/graph"
)

// Raw exposes the index's backing arrays for persistence: the flat walk
// array (walk i of node w at [(w*R+i)*L, +L)), the H rows (h[j-1] is
// H[j], each of length n), and the reverse-reachability CSR — the index's
// own if a reader has derived it, else inverted for this call only, so
// saving an index nobody asked for I_L does not keep the lists on it. The
// slices alias internal storage and must be treated as immutable.
func (ix *Index) Raw() (l, r, n int, walks []graph.NodeID, h [][]float64, reachOff []int32, reachStarts []graph.NodeID) {
	if ix.reachDone.Load() {
		reachOff, reachStarts = ix.reachOff, ix.reachStarts
	} else {
		reachOff, reachStarts = ix.invertWalks(nil)
	}
	return ix.L, ix.R, ix.n, ix.walks, ix.h, reachOff, reachStarts
}

// Adopt builds an Index over externally owned backing arrays, in the
// layout Raw documents, without copying them. The caller transfers
// ownership: the arrays must stay live and unmodified for the index's
// lifetime (they may be views into a read-only file mapping — writing
// through them faults). Structural invariants are validated — array
// sizes against the header, the reach CSR's offsets monotone and in
// range — so a corrupt artifact fails here with an error instead of
// panicking inside a query. The reach CSR is installed as loaded: an
// adopted index never inverts its walks.
func Adopt(l, r, n int, walks []graph.NodeID, h [][]float64, reachOff []int32, reachStarts []graph.NodeID) (*Index, error) {
	if l < 1 || r < 1 || n < 0 {
		return nil, fmt.Errorf("randwalk: adopt: corrupt header L=%d R=%d N=%d", l, r, n)
	}
	if n > 0 && (l > (1<<31)/n || r > (1<<31)/(n*l)) {
		return nil, fmt.Errorf("randwalk: adopt: walk array dimensions overflow (L=%d R=%d N=%d)", l, r, n)
	}
	if len(walks) != n*r*l {
		return nil, fmt.Errorf("randwalk: adopt: walk array size %d, want %d", len(walks), n*r*l)
	}
	if len(h) != l {
		return nil, fmt.Errorf("randwalk: adopt: %d H rows, want %d", len(h), l)
	}
	for j := range h {
		if len(h[j]) != n {
			return nil, fmt.Errorf("randwalk: adopt: H row %d has %d entries, want %d", j+1, len(h[j]), n)
		}
	}
	if len(reachOff) != n+1 {
		return nil, fmt.Errorf("randwalk: adopt: reach offsets size %d, want %d", len(reachOff), n+1)
	}
	if n > 0 && reachOff[0] != 0 {
		return nil, fmt.Errorf("randwalk: adopt: reach offsets start at %d, want 0", reachOff[0])
	}
	for i := 1; i < len(reachOff); i++ {
		if reachOff[i] < reachOff[i-1] {
			return nil, fmt.Errorf("randwalk: adopt: reach offsets decrease at %d", i)
		}
	}
	if len(reachOff) > 0 && int(reachOff[len(reachOff)-1]) != len(reachStarts) {
		return nil, fmt.Errorf("randwalk: adopt: reach CSR ends at %d, want %d", reachOff[len(reachOff)-1], len(reachStarts))
	}
	ix := &Index{L: l, R: r, n: n, walks: walks, h: h}
	ix.setReach(reachOff, reachStarts)
	return ix, nil
}
