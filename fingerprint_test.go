package repro

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/propidx"
	"repro/internal/randwalk"
)

// Digests of the two offline indexes over preset data_2k at the engine's
// default parameters (L=6, R=16, θ=0.01, seed 1), recorded at commit
// 2a1f80f — before buildReach became a counting sort, the enumerator went
// from maps to dense arrays and the per-start RNG allocation was removed.
// A rewrite of either build must reproduce them; a change that moves them
// on purpose also moves every summary, golden answer and precision figure.
const (
	walkIndexDigest = "d1f63f07472a927f0916afe5a7ed564ba0d6bf978b1e7c31802728138c2a1075"
	propIndexDigest = "4f7f37500427562708e8848a302456fc265c7b6d4a17d1ac7199c732420e9f3d"
)

// TestIndexFingerprint pins the offline build bit for bit: every stored
// walk, every H row and every reach list of the walk index, and every Γ
// row (source, propagation bits, potential mark) of the propagation index,
// at several worker counts.
func TestIndexFingerprint(t *testing.T) {
	p, err := dataset.PresetByName("data_2k")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph
	ctx := context.Background()
	for _, workers := range []int{1, 2, 7} {
		walks, err := randwalk.Build(ctx, g, randwalk.Options{L: 6, R: 16, Seed: 1, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got := walkFingerprint(g, walks); got != walkIndexDigest {
			t.Errorf("workers=%d: walk index digest %s, want %s", workers, got, walkIndexDigest)
		}
		prop, err := propidx.Build(ctx, g, propidx.Options{Theta: 0.01, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got := propFingerprint(g, prop); got != propIndexDigest {
			t.Errorf("workers=%d: propagation index digest %s, want %s", workers, got, propIndexDigest)
		}
	}
}

// digest feeds fixed-width words to a SHA-256.
type digest struct{ h hash.Hash }

func newDigest() digest { return digest{sha256.New()} }

func (d digest) put(x uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], x)
	d.h.Write(buf[:])
}

func (d digest) putNodes(run []graph.NodeID) {
	d.put(uint64(len(run)))
	for _, u := range run {
		d.put(uint64(u))
	}
}

func (d digest) String() string { return hex.EncodeToString(d.h.Sum(nil)) }

func walkFingerprint(g *graph.Graph, ix *randwalk.Index) string {
	d := newDigest()
	n := g.NumNodes()
	for w := 0; w < n; w++ {
		for i := 0; i < ix.R; i++ {
			d.putNodes(ix.Walk(i, graph.NodeID(w)))
		}
	}
	for step := 1; step <= ix.L; step++ {
		for _, f := range ix.VisitFreqRow(step) {
			d.put(math.Float64bits(f))
		}
	}
	for v := 0; v < n; v++ {
		d.putNodes(ix.ReachL(graph.NodeID(v)))
	}
	return d.String()
}

func propFingerprint(g *graph.Graph, ix *propidx.Index) string {
	d := newDigest()
	for v := 0; v < g.NumNodes(); v++ {
		srcs, props, pot := ix.Gamma(graph.NodeID(v))
		d.put(uint64(len(srcs)))
		for i, u := range srcs {
			d.put(uint64(u))
			d.put(math.Float64bits(props[i]))
			if pot[i] {
				d.put(1)
			} else {
				d.put(0)
			}
		}
	}
	return d.String()
}
