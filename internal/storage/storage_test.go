package storage

import (
	"bytes"
	"errors"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/graph"
)

func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(6))
	b := graph.NewBuilder(60)
	for i := 0; i < 240; i++ {
		u, v := graph.NodeID(rng.Intn(60)), graph.NodeID(rng.Intn(60))
		if u == v {
			continue
		}
		b.MustAddEdge(u, v, 0.1+0.8*rng.Float64())
	}
	return b.Build()
}

// legacyV1Prefix is how every artifact of the retired gob format began:
// the gob type definition of its envelope struct, then the envelope
// value carrying the magic "pitsearch-index-v1" and the kind. Captured
// from the last build that wrote it; the payload followed.
const legacyV1Prefix = "(\x7f\x03\x01\x01\benvelope\x01\xff\x80\x00\x01\x02\x01\x05Magic\x01\f\x00\x01\x04Kind\x01\f\x00\x00\x00\"\xff\x80\x01\x12pitsearch-index-v1\x01\tsummaries\x00"

// resaveIdentical saves what was loaded from path through save and
// requires the same bytes: the encoding is deterministic, and an index
// whose arrays are views into a mapping is as saveable as a built one.
func resaveIdentical(t *testing.T, path string, save func(string) error) {
	t.Helper()
	again := path + ".again"
	if err := save(again); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("re-saving the loaded artifact changed its bytes (%d → %d)", len(want), len(got))
	}
}

func TestWalkIndexRoundTrip(t *testing.T) {
	path := saveAllV2(t)[kindWalks]
	ix, h, err := OpenWalkIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	resaveIdentical(t, path, func(p string) error { return SaveWalkIndex(p, ix) })
}

func TestPropIndexRoundTrip(t *testing.T) {
	path := saveAllV2(t)[kindProp]
	ix, h, err := OpenPropIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	resaveIdentical(t, path, func(p string) error { return SavePropIndex(p, ix) })
}

func TestSummariesRoundTrip(t *testing.T) {
	path := saveAllV2(t)[kindSums]
	sums, h, err := OpenSummaries(path)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	resaveIdentical(t, path, func(p string) error { return SaveSummaries(p, sums) })
}

// Every artifact opened as every other kind is refused by the header's
// kind field, before any section is interpreted.
func TestKindMismatchRejected(t *testing.T) {
	for kind, path := range saveAllV2(t) {
		for _, as := range []string{kindWalks, kindProp, kindSums} {
			err := openByKind(as, path)
			if as == kind {
				if err != nil {
					t.Errorf("%s file as %s: %v", kind, as, err)
				}
				continue
			}
			if err == nil || !strings.Contains(err.Error(), "storage: file holds") {
				t.Errorf("%s file opened as %s: %v", kind, as, err)
			}
		}
	}
}

// The legacy boundary: a file that does not carry the v2 magic — junk,
// nothing at all, a header cut off mid-magic, or an artifact of the
// retired gob v1 format — is one hard error through every Open*, naming
// the format this build reads and the command that rebuilds it. The
// payload is never looked at, so whatever sizes it claims cost nothing.
func TestCorruptFileRejected(t *testing.T) {
	cases := map[string][]byte{
		"junk":             []byte("not an artifact at all, but longer than any header this package reads"),
		"empty":            nil,
		"cut mid-magic":    []byte(magicV2[:12]),
		"gob v1":           []byte(legacyV1Prefix),
		"gob v1 huge size": append([]byte(legacyV1Prefix), 0xf8, 0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff),
	}
	dir := t.TempDir()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for name, data := range cases {
		p := filepath.Join(dir, "legacy.pit")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, kind := range []string{kindWalks, kindProp, kindSums} {
			err := openByKind(kind, p)
			if err == nil {
				t.Errorf("%s accepted as %s", name, kind)
				continue
			}
			for _, want := range []string{"storage: not a " + magicV2, "pitsearch-index-v1", "datagen -index-dir"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("%s as %s: error %q does not say %q", name, kind, err, want)
				}
			}
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("rejecting %d tiny files allocated %d bytes", len(cases), grew)
	}

	err := openByKind(kindWalks, filepath.Join(dir, "missing.pit"))
	if !errors.Is(err, fs.ErrNotExist) || !strings.HasPrefix(err.Error(), "storage:") {
		t.Errorf("missing file: %v, want a storage:-wrapped fs.ErrNotExist", err)
	}
}

func TestSaveNilRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.pit")
	if err := SaveWalkIndex(path, nil); err == nil {
		t.Error("nil walk index accepted")
	}
	if err := SavePropIndex(path, nil); err == nil {
		t.Error("nil prop index accepted")
	}
}
