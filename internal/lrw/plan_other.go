//go:build !amd64

package lrw

import "repro/internal/graph"

// haveAVX is false off amd64: propagate4 runs propagate4Go.
const haveAVX = false

// propagateClass4 has no kernel off amd64; propagate4 never calls it there.
func propagateClass4(deg int, lambda float64, nodes, src []graph.NodeID, coef []float64, pStar, prev, cur [][Lanes]float64) bool {
	panic("lrw: no AVX kernel on this architecture")
}
