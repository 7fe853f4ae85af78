package lrw

import "repro/internal/graph"

// haveAVX selects propagate4's kernel, once per process: the CPU must
// report AVX and the OS must save the YMM registers across context
// switches (OSXSAVE, and XCR0's SSE and AVX state bits).
var haveAVX = cpuHasAVX()

// cpuHasAVX reports whether the AVX kernel may run on this CPU.
func cpuHasAVX() bool

// propagateClass4 is one in-degree class of propagate4: for each node v of
// nodes, in order, it sums the class's next deg terms coef[e]·prev[src[e]]
// into one four-lane accumulator and writes Clamp01((1−λ)·pStar[v] + λ·acc)
// to cur[v]. src and coef start at the class and must hold deg·len(nodes)
// entries. It reports false, having read and written nothing past a
// slice, when an index is outside its slice; cur may then be partly
// written.
//
//go:noescape
func propagateClass4(deg int, lambda float64, nodes, src []graph.NodeID, coef []float64, pStar, prev, cur [][Lanes]float64) bool
