package storage

// Tests for the flat binary v2 format: round trips over both the
// zero-copy and copying view paths, and the robustness battery — truncation at every section boundary, bit
// flips under every CRC, and envelope lies (bad magic, kind, counts,
// offsets). A corrupt artifact must produce a wrapped "storage:"
// error, never a panic.

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/propidx"
	"repro/internal/randwalk"
	"repro/internal/summary"
)

func buildWalks(t testing.TB) *randwalk.Index {
	t.Helper()
	ix, err := randwalk.Build(context.Background(), testGraph(t), randwalk.Options{L: 4, R: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func buildProp(t testing.TB) *propidx.Index {
	t.Helper()
	ix, err := propidx.Build(context.Background(), testGraph(t), propidx.Options{Theta: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func testSums() []summary.Summary {
	return []summary.Summary{
		summary.New(0, []summary.WeightedNode{{Node: 3, Weight: 0.5}, {Node: 7, Weight: 0.25}}),
		summary.New(2, nil),
		summary.New(5, []summary.WeightedNode{{Node: 1, Weight: 1}}),
	}
}

// forceCopy runs f with the zero-copy views disabled, so the portable
// decode path is exercised on little-endian hosts too.
func forceCopy(t *testing.T, f func(t *testing.T)) {
	old := forceCopyViews
	forceCopyViews = true
	defer func() { forceCopyViews = old }()
	f(t)
}

func sameWalks(t *testing.T, a, b *randwalk.Index) {
	t.Helper()
	if a.L != b.L || a.R != b.R || a.NumNodes() != b.NumNodes() {
		t.Fatalf("header mismatch: %d/%d/%d vs %d/%d/%d", a.L, a.R, a.NumNodes(), b.L, b.R, b.NumNodes())
	}
	for w := 0; w < a.NumNodes(); w++ {
		for i := 0; i < a.R; i++ {
			wa, wb := a.Walk(i, graph.NodeID(w)), b.Walk(i, graph.NodeID(w))
			if len(wa) != len(wb) {
				t.Fatalf("walk(%d,%d) length differs", i, w)
			}
			for j := range wa {
				if wa[j] != wb[j] {
					t.Fatalf("walk(%d,%d)[%d] differs", i, w, j)
				}
			}
		}
		ra, rb := a.ReachL(graph.NodeID(w)), b.ReachL(graph.NodeID(w))
		if len(ra) != len(rb) {
			t.Fatalf("ReachL(%d) length differs", w)
		}
		for j := range ra {
			if ra[j] != rb[j] {
				t.Fatalf("ReachL(%d)[%d] differs", w, j)
			}
		}
	}
	for j := 1; j <= a.L; j++ {
		for v := 0; v < a.NumNodes(); v++ {
			if a.VisitFreq(j, graph.NodeID(v)) != b.VisitFreq(j, graph.NodeID(v)) {
				t.Fatalf("H[%d][%d] differs", j, v)
			}
		}
	}
}

func sameProp(t *testing.T, a, b *propidx.Index) {
	t.Helper()
	if a.Theta() != b.Theta() || a.Size() != b.Size() || a.NumNodes() != b.NumNodes() {
		t.Fatal("header mismatch")
	}
	for v := 0; v < a.NumNodes(); v++ {
		s1, p1, m1 := a.Gamma(graph.NodeID(v))
		s2, p2, m2 := b.Gamma(graph.NodeID(v))
		if len(s1) != len(s2) {
			t.Fatalf("Gamma(%d) length differs", v)
		}
		for i := range s1 {
			if s1[i] != s2[i] || p1[i] != p2[i] || m1[i] != m2[i] {
				t.Fatalf("Gamma(%d)[%d] differs", v, i)
			}
		}
	}
}

func TestWalkIndexV2RoundTrip(t *testing.T) {
	ix := buildWalks(t)
	path := filepath.Join(t.TempDir(), "walks.pit")
	if err := SaveWalkIndex(path, ix); err != nil {
		t.Fatal(err)
	}
	got, h, err := OpenWalkIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	sameWalks(t, ix, got)

	forceCopy(t, func(t *testing.T) {
		got2, h2, err := OpenWalkIndex(path)
		if err != nil {
			t.Fatal(err)
		}
		defer h2.Close()
		sameWalks(t, ix, got2)
	})
}

func TestPropIndexV2RoundTrip(t *testing.T) {
	ix := buildProp(t)
	path := filepath.Join(t.TempDir(), "prop.pit")
	if err := SavePropIndex(path, ix); err != nil {
		t.Fatal(err)
	}
	got, h, err := OpenPropIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	sameProp(t, ix, got)

	forceCopy(t, func(t *testing.T) {
		got2, h2, err := OpenPropIndex(path)
		if err != nil {
			t.Fatal(err)
		}
		defer h2.Close()
		sameProp(t, ix, got2)
	})
}

func TestSummariesV2RoundTrip(t *testing.T) {
	sums := testSums()
	path := filepath.Join(t.TempDir(), "sums.pit")
	if err := SaveSummaries(path, sums); err != nil {
		t.Fatal(err)
	}
	check := func(t *testing.T) {
		got, h, err := OpenSummaries(path)
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		if len(got) != len(sums) {
			t.Fatalf("got %d summaries, want %d", len(got), len(sums))
		}
		for i := range sums {
			if got[i].Topic != sums[i].Topic || got[i].Len() != sums[i].Len() {
				t.Fatalf("summary %d header differs: %+v vs %+v", i, got[i], sums[i])
			}
			for j, r := range sums[i].Reps {
				if got[i].Reps[j] != r {
					t.Fatalf("summary %d rep %d differs", i, j)
				}
			}
		}
	}
	check(t)
	forceCopy(t, check)
}

func TestSummariesV2RoundTripEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sums.pit")
	if err := SaveSummaries(path, nil); err != nil {
		t.Fatal(err)
	}
	got, h, err := OpenSummaries(path)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if len(got) != 0 {
		t.Fatalf("got %d summaries, want 0", len(got))
	}
}

func TestV2KindMismatchRejected(t *testing.T) {
	ix := buildWalks(t)
	path := filepath.Join(t.TempDir(), "walks.pit")
	if err := SaveWalkIndex(path, ix); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenPropIndex(path); err == nil || !strings.Contains(err.Error(), "expected") {
		t.Errorf("walk file opened as prop index: %v", err)
	}
}

// saveAllV2 writes one artifact of each kind and returns their paths.
func saveAllV2(t *testing.T) map[string]string {
	t.Helper()
	dir := t.TempDir()
	paths := map[string]string{
		kindWalks: filepath.Join(dir, "walks.pit"),
		kindProp:  filepath.Join(dir, "prop.pit"),
		kindSums:  filepath.Join(dir, "sums.pit"),
	}
	if err := SaveWalkIndex(paths[kindWalks], buildWalks(t)); err != nil {
		t.Fatal(err)
	}
	if err := SavePropIndex(paths[kindProp], buildProp(t)); err != nil {
		t.Fatal(err)
	}
	if err := SaveSummaries(paths[kindSums], testSums()); err != nil {
		t.Fatal(err)
	}
	return paths
}

// openByKind loads path as its kind; every failure must be an error,
// never a panic.
func openByKind(kind, path string) error {
	var err error
	var h *Handle
	switch kind {
	case kindWalks:
		_, h, err = OpenWalkIndex(path)
	case kindProp:
		_, h, err = OpenPropIndex(path)
	case kindSums:
		_, h, err = OpenSummaries(path)
	}
	if h != nil {
		h.Close()
	}
	return err
}

// Truncating a v2 file at every prefix length around structural
// boundaries (header, TOC, each section edge) must always produce a
// "storage:" error.
func TestV2TruncationRejected(t *testing.T) {
	for kind, path := range saveAllV2(t) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Every prefix for the envelope region, then the bytes around
		// each 8-aligned boundary through the rest of the file.
		cuts := map[int]bool{}
		for i := 0; i < len(data) && i <= 256; i++ {
			cuts[i] = true
		}
		for off := 256; off < len(data); off += 8 {
			cuts[off] = true
			cuts[off+1] = true
		}
		cuts[len(data)-1] = true
		dir := t.TempDir()
		for cut := range cuts {
			if cut >= len(data) {
				continue
			}
			p := filepath.Join(dir, "trunc.pit")
			if err := os.WriteFile(p, data[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			if err := openByKind(kind, p); err == nil {
				t.Errorf("%s truncated at %d/%d accepted", kind, cut, len(data))
			} else if !strings.Contains(err.Error(), "storage:") {
				t.Errorf("%s truncated at %d: error not wrapped: %v", kind, cut, err)
			}
		}
	}
}

// Flipping any single byte must be caught by a CRC (or a validation
// check downstream of it) — sampled across the file to keep runtime
// reasonable.
func TestV2BitFlipRejected(t *testing.T) {
	for kind, path := range saveAllV2(t) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		for off := 0; off < len(data); off += 7 {
			mut := append([]byte{}, data...)
			mut[off] ^= 0x41
			p := filepath.Join(dir, "flip.pit")
			if err := os.WriteFile(p, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := openByKind(kind, p); err == nil {
				t.Errorf("%s with byte %d flipped accepted", kind, off)
			}
		}
	}
}

func TestV2GarbageRejected(t *testing.T) {
	dir := t.TempDir()
	cases := [][]byte{
		nil,
		[]byte("x"),
		[]byte(magicV2),
		append([]byte(magicV2), make([]byte, 100)...),
	}
	for i, data := range cases {
		p := filepath.Join(dir, "garbage.pit")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, kind := range []string{kindWalks, kindProp, kindSums} {
			if err := openByKind(kind, p); err == nil {
				t.Errorf("garbage case %d accepted as %s", i, kind)
			}
		}
	}
}

// A failed save must leave any existing artifact untouched: writes land
// in a temp file that is renamed only on success.
func TestSaveIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "walks.pit")
	ix := buildWalks(t)
	if err := SaveWalkIndex(path, ix); err != nil {
		t.Fatal(err)
	}
	onlyArtifact := func(when string) {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.Name() != "walks.pit" {
				t.Errorf("leftover temp file %q after %s", e.Name(), when)
			}
		}
	}
	onlyArtifact("a save to a new file")
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-write: an atomicWriteFile whose payload
	// writer fails partway (as a dying process would leave it).
	wantErr := os.ErrClosed
	err = atomicWriteFile(path, func(w io.Writer) error {
		w.Write([]byte("partial garbage"))
		return wantErr
	})
	if err == nil {
		t.Fatal("failed write reported success")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("failed save corrupted the existing artifact")
	}
	onlyArtifact("a failed save")
	// And the surviving artifact still loads.
	got, h, err := OpenWalkIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	sameWalks(t, ix, got)
}
