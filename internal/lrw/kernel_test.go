package lrw

// The four-lane Equation 5 kernels side by side: propagate4Go, the portable
// oracle, and propagate4AVX where the CPU has AVX. The golden digests and
// TestPlanEqualsReference cover the values real plans produce; the tests
// here feed both kernels the values real plans never do — sums that land on
// the clamp's edges or round past them, NaN, −0 — and plans whose indexes
// point outside the vectors.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

// kernel4 is one implementation of plan.propagate4.
type kernel4 struct {
	name string
	run  func(p *plan, i int, lambda float64, pStar, prev, cur [][Lanes]float64)
}

// kernels4 is every four-lane kernel this CPU can run: propagate4Go
// always, propagate4AVX when the CPU has AVX (otherwise a logged skip).
func kernels4(tb testing.TB) []kernel4 {
	ks := []kernel4{{"go", (*plan).propagate4Go}}
	if haveAVX {
		return append(ks, kernel4{"avx", (*plan).propagate4AVX})
	}
	tb.Log("this CPU has no AVX: the AVX kernel is skipped")
	return ks
}

// replayLanes is scoresLanes' Equation 5 loop through one kernel, on fresh
// vectors, over the plan and P* a scoresLanes call left behind.
func replayLanes(k kernel4, p *plan, L int, lambda float64, pStar [][Lanes]float64) [][Lanes]float64 {
	prev, cur := slices.Clone(pStar), make([][Lanes]float64, len(pStar))
	for i := 1; i <= L; i++ {
		k.run(p, i, lambda, pStar, prev, cur)
		prev, cur = cur, prev
	}
	return prev
}

// craftedPlan lays out a plan by hand, one class per entry of degs
// (ascending, each counts[k] nodes), with every node in a shuffled
// position, every in-edge's source uniform over the nodes and its
// coefficient drawn by coef. Only what propagate4 reads is filled in.
func craftedPlan(rng *rand.Rand, degs, counts []int, coef func() float64) *plan {
	p := &plan{coef: [][]float64{nil}}
	n := 0
	for k, d := range degs {
		p.classes = append(p.classes, degClass{deg: int32(d), count: int32(counts[k])})
		n += counts[k]
	}
	p.nodes = make([]graph.NodeID, n)
	for v := range p.nodes {
		p.nodes[v] = graph.NodeID(v)
	}
	rng.Shuffle(n, func(a, b int) { p.nodes[a], p.nodes[b] = p.nodes[b], p.nodes[a] })
	for k, d := range degs {
		for e := 0; e < d*counts[k]; e++ {
			p.src = append(p.src, graph.NodeID(rng.Intn(n)))
			p.coef[0] = append(p.coef[0], coef())
		}
	}
	return p
}

// TestKernelsCraftedBits runs both kernels over crafted plans and vectors
// and requires propagate4Go's exact bits in every lane. The inputs reach
// every case Clamp01 distinguishes — a sum landing exactly on 0 and on 1,
// one rounding just past 1, one below 0, NaN from prev, −0 from P* — in
// every class from in-degree 0 to the largest, at four λ.
func TestKernelsCraftedBits(t *testing.T) {
	kernels := kernels4(t)
	rng := rand.New(rand.NewSource(46))
	// 0.7 + 0.30000000000000004 rounds to 1 + 2⁻⁵²; 0.1 + 0.2 + 0.7 lands
	// on 1 exactly (and so does 0.5 + 0.5).
	special := []float64{0, math.Copysign(0, -1), 1, 0.5, 0.1, 0.2, 0.7, 0.1 + 0.2, 1 - 0x1p-53, 1 + 0x1p-52, 0x1p-1074, -0.25, 3}
	pick := func(vals []float64) float64 {
		if rng.Intn(4) == 0 {
			return rng.Float64()*1.5 - 0.25
		}
		return vals[rng.Intn(len(vals))]
	}
	degs := []int{0, 1, 2, 3, 5, 8, 13, 64}
	counts := []int{40, 60, 60, 50, 30, 20, 10, 1}
	n := 0
	for _, c := range counts {
		n += c
	}
	coefs := []float64{0, 1, 0.5, 0.1, 0.7, 1e-300}
	seen := map[string]int{}
	for trial := 0; trial < 40; trial++ {
		p := craftedPlan(rng, degs, counts, func() float64 { return pick(coefs) })
		pStar, prev := make([][Lanes]float64, n), make([][Lanes]float64, n)
		for v := range prev {
			for j := range Lanes {
				pStar[v][j], prev[v][j] = pick(special), pick(special)
			}
		}
		// NaN only ever enters through prev, with one payload, so no sum
		// adds two NaNs whose payloads could depend on operand order.
		for range 3 {
			prev[rng.Intn(n)][rng.Intn(Lanes)] = math.NaN()
		}
		for _, lambda := range []float64{0, 0.15, 0.5, 1} {
			want := make([][Lanes]float64, n)
			kernels[0].run(p, 1, lambda, pStar, prev, want)
			classify(p, lambda, pStar, prev, seen)
			for _, k := range kernels[1:] {
				got := make([][Lanes]float64, n)
				k.run(p, 1, lambda, pStar, prev, got)
				for v := range want {
					for j := range Lanes {
						if math.Float64bits(got[v][j]) != math.Float64bits(want[v][j]) {
							t.Fatalf("%s, trial %d λ=%v node %d lane %d: %x (%g), want %x (%g)", k.name, trial, lambda, v, j,
								math.Float64bits(got[v][j]), got[v][j], math.Float64bits(want[v][j]), want[v][j])
						}
					}
				}
			}
		}
	}
	for _, c := range []string{"exactly 0", "exactly 1", "just above 1", "above 1", "below 0", "NaN", "-0"} {
		if seen[c] == 0 {
			t.Errorf("no crafted sum was %s before the clamp", c)
		}
	}
}

// classify counts, into seen, which of Clamp01's cases each lane's sum
// (1−λ)·P* + λ·acc falls in, acc summed as the kernels do.
func classify(p *plan, lambda float64, pStar, prev [][Lanes]float64, seen map[string]int) {
	nodes, src, coef := p.nodes, p.src, p.coef[0]
	for _, c := range p.classes {
		deg := int(c.deg)
		for _, v := range nodes[:c.count] {
			for j := range Lanes {
				acc := 0.0
				for k, w := range coef[:deg] {
					acc += w * prev[src[k]][j]
				}
				x := (1-lambda)*pStar[v][j] + lambda*acc
				switch {
				case math.IsNaN(x):
					seen["NaN"]++
				case math.Float64bits(x) == math.Float64bits(math.Copysign(0, -1)):
					seen["-0"]++
				case math.Float64bits(x) == 0:
					seen["exactly 0"]++
				case math.Float64bits(x) == math.Float64bits(1):
					seen["exactly 1"]++
				case math.Float64bits(x) == math.Float64bits(1+0x1p-52):
					seen["just above 1"]++
				case x > 1:
					seen["above 1"]++
				case x < 0:
					seen["below 0"]++
				}
			}
			src, coef = src[deg:], coef[deg:]
		}
		nodes = nodes[c.count:]
	}
}

// TestKernelsRefuseCorruptPlan corrupts a real plan one way at a time — an
// in-edge source or a node at n or negative, in-edge lists shorter than
// their classes — and requires every kernel to panic rather than read or
// write outside a slice.
func TestKernelsRefuseCorruptPlan(t *testing.T) {
	g, _, walks := goldenWorld(t)
	var good plan
	if err := good.ensure(context.Background(), g, walks); err != nil {
		t.Fatal(err)
	}
	n := graph.NodeID(g.NumNodes())
	pStar, prev, cur := make([][Lanes]float64, n), make([][Lanes]float64, n), make([][Lanes]float64, n)
	for _, k := range kernels4(t) {
		k.run(&good, 1, 0.5, pStar, prev, cur) // the intact plan runs
		for _, tc := range []struct {
			what    string
			corrupt func(p *plan)
		}{
			{"src entry n", func(p *plan) { p.src[len(p.src)/2] = n }},
			{"negative src entry", func(p *plan) { p.src[0] = -1 }},
			{"last src entry n", func(p *plan) { p.src[len(p.src)-1] = n }},
			{"node n", func(p *plan) { p.nodes[n-1] = n }},
			{"negative node", func(p *plan) { p.nodes[0] = -1 }},
			{"short src", func(p *plan) { p.src = p.src[: len(p.src)-1 : len(p.src)-1] }},
			{"short coef", func(p *plan) { c := p.coef[0]; p.coef = [][]float64{c[: len(c)-1 : len(c)-1]} }},
		} {
			t.Run(fmt.Sprintf("%s/%s", k.name, tc.what), func(t *testing.T) {
				bad := good
				bad.src, bad.nodes = slices.Clone(good.src), slices.Clone(good.nodes)
				tc.corrupt(&bad)
				defer func() {
					if recover() == nil {
						t.Errorf("a plan with a %s ran without a panic", tc.what)
					}
				}()
				k.run(&bad, 1, 0.5, pStar, prev, cur)
			})
		}
	}
}
