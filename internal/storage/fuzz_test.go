package storage

// FuzzLoad drives arbitrary bytes through the load path for every
// artifact kind. The contract under fuzzing: a load either succeeds or
// returns a wrapped "storage:" error; it never panics, and (because
// every length is validated before slicing) never allocates
// proportionally to a lied-about length. Seeds are freshly encoded
// artifacts of each kind cut and flipped at the envelope's structural
// boundaries, plus the prefix of a retired gob v1 artifact, so the
// fuzzer starts at the interesting edges instead of rediscovering the
// magic.

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/propidx"
	"repro/internal/randwalk"
	"repro/internal/summary"
)

func fuzzSeeds(f *testing.F) [][]byte {
	f.Helper()
	dir := f.TempDir()
	g := testGraph(f)
	walkIx, err := randwalk.Build(context.Background(), g, randwalk.Options{L: 3, R: 2, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	propIx, err := propidx.Build(context.Background(), g, propidx.Options{Theta: 0.2})
	if err != nil {
		f.Fatal(err)
	}
	sums := []summary.Summary{
		summary.New(0, []summary.WeightedNode{{Node: 1, Weight: 0.5}, {Node: 4, Weight: 0.5}}),
		summary.New(3, nil),
	}
	saves := []func(string) error{
		func(p string) error { return SaveWalkIndex(p, walkIx) },
		func(p string) error { return SavePropIndex(p, propIx) },
		func(p string) error { return SaveSummaries(p, sums) },
	}
	var out [][]byte
	for i, save := range saves {
		p := filepath.Join(dir, "seed.pit")
		if err := save(p); err != nil {
			f.Fatalf("seed %d: %v", i, err)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		out = append(out, data)
	}
	return out
}

func FuzzLoad(f *testing.F) {
	for _, data := range fuzzSeeds(f) {
		for kindSel := byte(0); kindSel < 3; kindSel++ {
			f.Add(kindSel, data)
			for _, cut := range []int{12, headerSize - 1, headerSize + tocEntrySize, len(data) / 2, len(data) - 1} {
				f.Add(kindSel, data[:cut])
			}
			for _, at := range []int{24, len(data) / 3} { // the kind field, a section
				mut := append([]byte{}, data...)
				mut[at] ^= 0xff
				f.Add(kindSel, mut)
			}
		}
	}
	f.Add(byte(0), []byte{})
	f.Add(byte(1), []byte(magicV2))
	f.Add(byte(2), []byte(legacyV1Prefix))

	kinds := []string{kindWalks, kindProp, kindSums}
	f.Fuzz(func(t *testing.T, kindSel byte, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		p := filepath.Join(t.TempDir(), "fuzz.pit")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := openByKind(kinds[int(kindSel)%len(kinds)], p); err != nil {
			if !strings.Contains(err.Error(), "storage:") {
				t.Errorf("error not wrapped with storage prefix: %v", err)
			}
		}
	})
}
