package randwalk

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/graph"
)

func lineGraph(t testing.TB, n int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.MustAddEdge(graph.NodeID(i), graph.NodeID(i+1), 0.5)
	}
	return b.Build()
}

func randomGraph(seed int64, n, m int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		b.MustAddEdge(u, v, 0.05+0.9*rng.Float64())
	}
	return b.Build()
}

func TestBuildValidatesOptions(t *testing.T) {
	g := lineGraph(t, 3)
	if _, err := Build(context.Background(), g, Options{L: 0, R: 1}); err == nil {
		t.Error("L=0 accepted")
	}
	if _, err := Build(context.Background(), g, Options{L: 1, R: 0}); err == nil {
		t.Error("R=0 accepted")
	}
}

func TestWalksOnLineGraphAreDeterministicPaths(t *testing.T) {
	// A line graph has exactly one walk choice at every step, so every
	// sampled walk from node 0 must be 1,2,3,... up to L hops.
	g := lineGraph(t, 10)
	ix, err := Build(context.Background(), g, Options{L: 4, R: 3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		walk := ix.Walk(i, 0)
		want := []graph.NodeID{1, 2, 3, 4}
		if len(walk) != len(want) {
			t.Fatalf("walk %d = %v, want %v", i, walk, want)
		}
		for j := range want {
			if walk[j] != want[j] {
				t.Fatalf("walk %d = %v, want %v", i, walk, want)
			}
		}
	}
}

func TestWalkTerminatesAtDeadEnd(t *testing.T) {
	g := lineGraph(t, 3) // 0→1→2, node 2 is a dead end
	ix, err := Build(context.Background(), g, Options{L: 5, R: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	walk := ix.Walk(0, 0)
	if len(walk) != 2 || walk[0] != 1 || walk[1] != 2 {
		t.Fatalf("walk from 0 = %v, want [1 2]", walk)
	}
	if got := ix.Walk(0, 2); len(got) != 0 {
		t.Fatalf("walk from dead end = %v, want empty", got)
	}
}

func TestWalkEntriesAreValidEdges(t *testing.T) {
	g := randomGraph(7, 30, 120)
	ix, err := Build(context.Background(), g, Options{L: 5, R: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Stored walks keep only first visits, so consecutive stored entries
	// are not necessarily adjacent — but the first entry must be an
	// out-neighbor of the start, and every entry must be a real node.
	for w := 0; w < g.NumNodes(); w++ {
		for i := 0; i < 4; i++ {
			walk := ix.Walk(i, graph.NodeID(w))
			if len(walk) == 0 {
				continue
			}
			if !g.Valid(walk[0]) || !g.HasEdge(graph.NodeID(w), walk[0]) {
				t.Fatalf("walk(%d,%d) first hop %d is not an out-neighbor", i, w, walk[0])
			}
			seen := map[graph.NodeID]bool{graph.NodeID(w): true}
			for _, v := range walk {
				if !g.Valid(v) {
					t.Fatalf("walk(%d,%d) contains invalid node %d", i, w, v)
				}
				if seen[v] {
					t.Fatalf("walk(%d,%d) repeats node %d: %v", i, w, v, walk)
				}
				seen[v] = true
			}
		}
	}
}

func TestReachLConsistentWithWalks(t *testing.T) {
	g := randomGraph(3, 25, 100)
	ix, err := Build(context.Background(), g, Options{L: 4, R: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Every node on a stored walk of w must list w in its ReachL set.
	for w := 0; w < g.NumNodes(); w++ {
		for i := 0; i < 3; i++ {
			for _, v := range ix.Walk(i, graph.NodeID(w)) {
				if !ix.CanReach(graph.NodeID(w), v) {
					t.Fatalf("node %d missing from ReachL(%d)", w, v)
				}
			}
		}
	}
	// And conversely every ReachL entry must correspond to some walk.
	for v := 0; v < g.NumNodes(); v++ {
		for _, w := range ix.ReachL(graph.NodeID(v)) {
			found := false
			for i := 0; i < 3 && !found; i++ {
				for _, x := range ix.Walk(i, w) {
					if x == graph.NodeID(v) {
						found = true
						break
					}
				}
			}
			if !found {
				t.Fatalf("ReachL(%d) lists %d but no walk of %d visits it", v, w, w)
			}
		}
	}
}

func TestReachLSorted(t *testing.T) {
	g := randomGraph(11, 40, 200)
	ix, err := Build(context.Background(), g, Options{L: 3, R: 5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumNodes(); v++ {
		run := ix.ReachL(graph.NodeID(v))
		for i := 1; i < len(run); i++ {
			if run[i-1] >= run[i] {
				t.Fatalf("ReachL(%d) not sorted/unique: %v", v, run)
			}
		}
	}
}

func TestVisitFreqBounds(t *testing.T) {
	g := randomGraph(5, 30, 150)
	const R = 4
	ix, err := Build(context.Background(), g, Options{L: 5, R: R, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for j := 1; j <= 5; j++ {
		for v := 0; v < g.NumNodes(); v++ {
			f := ix.VisitFreq(j, graph.NodeID(v))
			// At iteration j a node can have been visited at most j
			// times within one walk, each contributing 1/R.
			if f < 0 || f > float64(j)/R+1e-12 {
				t.Fatalf("VisitFreq(%d,%d) = %v out of [0,%v]", j, v, f, float64(j)/R)
			}
		}
	}
	if got := ix.VisitFreq(0, 0); got != 0 {
		t.Errorf("VisitFreq(0,·) = %v, want 0", got)
	}
	if got := ix.VisitFreq(6, 0); got != 0 {
		t.Errorf("VisitFreq(L+1,·) = %v, want 0", got)
	}
	if got := ix.VisitFreqRow(0); got != nil {
		t.Errorf("VisitFreqRow(0) = %v, want nil", got)
	}
}

func TestVisitFreqMonotoneOnLine(t *testing.T) {
	// On the line graph the walk from node 0 visits node j exactly at
	// iteration j with frequency 1/R (maximum over identical walks).
	g := lineGraph(t, 6)
	const R = 3
	ix, err := Build(context.Background(), g, Options{L: 5, R: R, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for j := 1; j <= 5; j++ {
		got := ix.VisitFreq(j, graph.NodeID(j))
		if math.Abs(got-1.0/R) > 1e-12 {
			t.Errorf("VisitFreq(%d,%d) = %v, want %v", j, j, got, 1.0/R)
		}
	}
}

func TestDeterminismBySeed(t *testing.T) {
	g := randomGraph(13, 40, 200)
	a, err := Build(context.Background(), g, Options{L: 4, R: 3, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(context.Background(), g, Options{L: 4, R: 3, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < g.NumNodes(); w++ {
		for i := 0; i < 3; i++ {
			wa, wb := a.Walk(i, graph.NodeID(w)), b.Walk(i, graph.NodeID(w))
			if len(wa) != len(wb) {
				t.Fatalf("seeded builds differ at walk(%d,%d)", i, w)
			}
			for j := range wa {
				if wa[j] != wb[j] {
					t.Fatalf("seeded builds differ at walk(%d,%d)[%d]", i, w, j)
				}
			}
		}
	}
	c, err := Build(context.Background(), g, Options{L: 4, R: 3, Seed: 100})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for w := 0; w < g.NumNodes() && same; w++ {
		wa, wc := a.Walk(0, graph.NodeID(w)), c.Walk(0, graph.NodeID(w))
		if len(wa) != len(wc) {
			same = false
			break
		}
		for j := range wa {
			if wa[j] != wc[j] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical walk sets (suspicious)")
	}
}

func TestSampleSize(t *testing.T) {
	cases := []struct {
		eps, delta float64
		want       int
	}{
		{0.1, 0.05, 185},  // ln(40)/0.02 ≈ 184.44
		{0.05, 0.05, 738}, // ln(40)/0.005 ≈ 737.78
		{0, 0.05, 1},      // degenerate inputs fall back to 1
		{0.1, 0, 1},
		{0.1, 1, 1},
	}
	for _, tc := range cases {
		if got := SampleSize(tc.eps, tc.delta); got != tc.want {
			t.Errorf("SampleSize(%v,%v) = %d, want %d", tc.eps, tc.delta, got, tc.want)
		}
	}
}

func TestMemoryBytesPositive(t *testing.T) {
	g := lineGraph(t, 10)
	ix, _ := Build(context.Background(), g, Options{L: 3, R: 2, Seed: 1})
	if ix.MemoryBytes() <= 0 {
		t.Error("MemoryBytes not positive")
	}
}

// Property: ReachL never contains the target itself unless a cycle returns
// to it, and CanReach agrees with a linear scan.
func TestCanReachMatchesScan(t *testing.T) {
	check := func(seed int64) bool {
		g := randomGraph(seed, 20, 60)
		ix, err := Build(context.Background(), g, Options{L: 3, R: 2, Seed: seed})
		if err != nil {
			return false
		}
		for v := 0; v < g.NumNodes(); v++ {
			run := ix.ReachL(graph.NodeID(v))
			for w := 0; w < g.NumNodes(); w++ {
				inRun := false
				for _, x := range run {
					if x == graph.NodeID(w) {
						inRun = true
						break
					}
				}
				if ix.CanReach(graph.NodeID(w), graph.NodeID(v)) != inRun {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// BenchmarkBuild times Algorithm 6 end to end (seeding, walking, the H
// support; the reach CSR waits for its first read and is not timed).
// pairs is the number of stored walk entries that read inverts, unique
// the reach entries left after dropping repeats. data_350k is the
// benchmark harness's dataset at the server's L and R, the shape behind
// randwalk.build_ms.
func BenchmarkBuild(b *testing.B) {
	b.Run("random2k", func(b *testing.B) {
		benchBuild(b, randomGraph(1, 2000, 20_000), Options{L: 6, R: 8})
	})
	b.Run("data_350k", func(b *testing.B) {
		if testing.Short() {
			b.Skip("data_350k build skipped under -short")
		}
		p, err := dataset.PresetByName("data_350k")
		if err != nil {
			b.Fatal(err)
		}
		g, err := dataset.GenerateGraph(p.Graph)
		if err != nil {
			b.Fatal(err)
		}
		benchBuild(b, g, Options{L: 6, R: 16})
	})
}

func benchBuild(b *testing.B, g *graph.Graph, opt Options) {
	b.ReportAllocs()
	b.ResetTimer()
	var ix *Index
	for i := 0; i < b.N; i++ {
		opt.Seed = int64(i)
		var err error
		if ix, err = Build(context.Background(), g, opt); err != nil {
			b.Fatal(err)
		}
	}
	pairs := 0
	for _, v := range ix.walks {
		if v >= 0 {
			pairs++
		}
	}
	b.ReportMetric(float64(pairs), "pairs")
	_, starts := ix.reach()
	b.ReportMetric(float64(len(starts)), "unique")
}

func TestBuildCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		if _, err := Build(ctx, lineGraph(t, 64), Options{L: 3, R: 2, Seed: 1, Workers: workers}); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: want context.Canceled, got %v", workers, err)
		}
	}
}
