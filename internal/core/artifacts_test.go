package core

// Artifact persistence tests: a cold-started engine must answer queries
// byte-identically to the engine that built the indexes (pinned with
// SHA-256 digests over summaries and exact score comparison), anything
// that is not a v2 artifact is refused, and a loaded engine's Close must
// drain in-flight queries before releasing the mappings (run under
// -race by `make check`).

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/storage"
	"repro/internal/summary"
	"repro/internal/topics"
)

// warmedEngine is builtEngine plus a fully materialized LRW corpus, so
// saved artifacts include a summary batch.
func warmedEngine(t testing.TB) *Engine {
	t.Helper()
	eng := builtEngine(t)
	if err := eng.MaterializeAll(context.Background(), MethodLRW); err != nil {
		t.Fatal(err)
	}
	return eng
}

// queryFingerprint answers a fixed query battery and returns the exact
// scores — the observable behavior two engines must agree on.
func queryFingerprint(t testing.TB, eng *Engine) []float64 {
	t.Helper()
	var out []float64
	for _, m := range []Method{MethodLRW, MethodRCL} {
		for q := 0; q < 4; q++ {
			res, err := eng.Search(context.Background(), m, dataset.TagName(q), graph.NodeID(q*31%eng.Graph().NumNodes()), 5)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range res {
				out = append(out, float64(r.Topic.ID), r.Score)
			}
		}
	}
	return out
}

// allSummaries materializes and returns every topic's summary under m,
// in topic order — digest input for the golden comparison.
func allSummaries(t testing.TB, eng *Engine, m Method) []summary.Summary {
	t.Helper()
	sums := make([]summary.Summary, 0, eng.Space().NumTopics())
	for i := 0; i < eng.Space().NumTopics(); i++ {
		s, err := eng.Summarize(context.Background(), m, topics.TopicID(i))
		if err != nil {
			t.Fatal(err)
		}
		sums = append(sums, s)
	}
	return sums
}

// loadedEngine cold-starts a fresh engine from dir over the same
// dataset.
func loadedEngine(t testing.TB, dir string) *Engine {
	t.Helper()
	g, space := smallWorld()
	eng, err := New(g, space, Options{WalkL: 4, WalkR: 8, Theta: 0.02, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.LoadArtifacts(dir); err != nil {
		t.Fatal(err)
	}
	return eng
}

// The golden equivalence test: a cold-started engine must produce
// byte-identical summaries (SHA-256) and exact-equal search scores to
// the engine that built the indexes.
func TestArtifactRoundTripByteIdentical(t *testing.T) {
	src := warmedEngine(t)
	defer src.Close()
	wantScores := queryFingerprint(t, src)
	wantLRW := summary.Digest(allSummaries(t, src, MethodLRW))
	wantRCL := summary.Digest(allSummaries(t, src, MethodRCL))

	t.Run(string(storage.FormatV2), func(t *testing.T) {
		dir := t.TempDir()
		if err := src.SaveArtifacts(dir, storage.FormatV2); err != nil {
			t.Fatal(err)
		}
		eng := loadedEngine(t, dir)
		defer eng.Close()
		// The saved LRW batch must have been preloaded, not rebuilt.
		if got := eng.CachedSummaries(MethodLRW); got != eng.Space().NumTopics() {
			t.Errorf("preloaded %d LRW summaries, want %d", got, eng.Space().NumTopics())
		}
		if got := summary.Digest(allSummaries(t, eng, MethodLRW)); got != wantLRW {
			t.Errorf("LRW summary digest differs after the round trip:\n got %s\nwant %s", got, wantLRW)
		}
		if got := summary.Digest(allSummaries(t, eng, MethodRCL)); got != wantRCL {
			t.Errorf("RCL summary digest differs after the round trip:\n got %s\nwant %s", got, wantRCL)
		}
		gotScores := queryFingerprint(t, eng)
		if len(gotScores) != len(wantScores) {
			t.Fatalf("fingerprint length %d, want %d", len(gotScores), len(wantScores))
		}
		for i := range wantScores {
			if gotScores[i] != wantScores[i] {
				t.Fatalf("fingerprint[%d] = %v, want %v", i, gotScores[i], wantScores[i])
			}
		}
	})
}

// legacyV1Prefix is the gob envelope every artifact of the retired
// pitsearch-index-v1 format began with (see internal/storage's tests).
const legacyV1Prefix = "(\x7f\x03\x01\x01\benvelope\x01\xff\x80\x00\x01\x02\x01\x05Magic\x01\f\x00\x01\x04Kind\x01\f\x00\x00\x00\"\xff\x80\x01\x12pitsearch-index-v1\x01\x05walks\x00"

// An artifact directory whose files do not carry the v2 magic — junk,
// empty, cut off mid-magic, or written by the retired gob v1 format —
// fails the load with storage's one error (expected format, rebuild
// command) and leaves the engine not ready and still buildable.
func TestLoadArtifactsRejectsNonV2(t *testing.T) {
	good := t.TempDir()
	src := builtEngine(t)
	defer src.Close()
	if err := src.SaveArtifacts(good, storage.FormatV2); err != nil {
		t.Fatal(err)
	}
	goodProp, err := os.ReadFile(filepath.Join(good, PropArtifact))
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"junk":          []byte("not an artifact at all, but longer than any header storage reads"),
		"empty":         nil,
		"cut mid-magic": []byte("pitsearch-in"),
		"gob v1":        []byte(legacyV1Prefix),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, WalkArtifact), data, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, PropArtifact), goodProp, 0o644); err != nil {
				t.Fatal(err)
			}
			g, space := smallWorld()
			eng, err := New(g, space, Options{WalkL: 4, WalkR: 8, Theta: 0.02, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			err = eng.LoadArtifacts(dir)
			if err == nil {
				t.Fatal("non-v2 walk artifact accepted")
			}
			for _, want := range []string{"storage: not a pitsearch-index-v2", "pitsearch-index-v1", "datagen -index-dir"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not say %q", err, want)
				}
			}
			if eng.Ready() {
				t.Error("engine ready after a refused load")
			}
			if err := eng.BuildIndexes(context.Background()); err != nil {
				t.Errorf("engine not buildable after a refused load: %v", err)
			}
		})
	}
}

func TestLoadArtifactsValidation(t *testing.T) {
	src := warmedEngine(t)
	defer src.Close()
	dir := t.TempDir()
	if err := src.SaveArtifacts(dir, storage.FormatV2); err != nil {
		t.Fatal(err)
	}
	if !ArtifactsExist(dir) {
		t.Error("ArtifactsExist false for a populated directory")
	}
	if ArtifactsExist(t.TempDir()) {
		t.Error("ArtifactsExist true for an empty directory")
	}

	// A mismatched dataset snapshot must be rejected by node count.
	g2, err := dataset.GenerateGraph(dataset.GraphConfig{Nodes: 50, MinOutDegree: 2, MaxOutDegree: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	space2, err := dataset.GenerateTopics(g2, dataset.TopicConfig{Tags: 2, TopicsPerTag: 2, MeanTopicNodes: 8, Locality: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	other, err := New(g2, space2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.LoadArtifacts(dir); err == nil {
		t.Error("artifact from a different snapshot accepted")
	}

	// Loading into an already-ready engine is rejected.
	if err := src.LoadArtifacts(dir); err == nil {
		t.Error("LoadArtifacts on a built engine accepted")
	}

	// Missing directory surfaces as an error.
	g, space := smallWorld()
	fresh, err := New(g, space, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.LoadArtifacts(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Error("missing artifact directory accepted")
	}
	// A failed load leaves the engine not-ready and still buildable.
	if fresh.Ready() {
		t.Error("engine ready after failed load")
	}

	// SaveArtifacts requires a ready engine and a known format.
	if err := fresh.SaveArtifacts(t.TempDir(), storage.FormatV2); !errors.Is(err, ErrNotReady) {
		t.Errorf("SaveArtifacts before build = %v, want ErrNotReady", err)
	}
	if err := src.SaveArtifacts(t.TempDir(), storage.Format("zip")); !errors.Is(err, ErrInvalidArgument) {
		t.Errorf("SaveArtifacts with bad format = %v, want ErrInvalidArgument", err)
	}
}

// A corrupted artifact in an otherwise valid directory must fail the
// load, release every mapping already opened and install nothing: the
// batch that decoded cleanly before the corrupt one is views into
// mappings the failed load releases, so a summary left cached would
// fault the first query after a fallback build. The RCL batch is the
// one corrupted because it is read last.
func TestLoadArtifactsCorruptSummariesRejected(t *testing.T) {
	src := warmedEngine(t)
	defer src.Close()
	if err := src.MaterializeAll(context.Background(), MethodRCL); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := src.SaveArtifacts(dir, storage.FormatV2); err != nil {
		t.Fatal(err)
	}
	sumPath := filepath.Join(dir, SummaryArtifact(MethodRCL))
	data, err := os.ReadFile(sumPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(sumPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	g, space := smallWorld()
	eng, err := New(g, space, Options{WalkL: 4, WalkR: 8, Theta: 0.02, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.LoadArtifacts(dir); err == nil {
		t.Fatal("corrupt summaries artifact accepted")
	}
	if eng.Ready() {
		t.Error("engine ready after failed load")
	}
	for _, m := range []Method{MethodLRW, MethodRCL} {
		if n := eng.CachedSummaries(m); n != 0 {
			t.Fatalf("failed load left %d %v summaries cached over released mappings", n, m)
		}
	}
	// Still buildable, and the built engine answers like the source.
	if err := eng.BuildIndexes(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got, want := queryFingerprint(t, eng), queryFingerprint(t, src); !slices.Equal(got, want) {
		t.Errorf("fallback build answers differ:\n got %v\nwant %v", got, want)
	}
}

// Close on a mapped engine must drain in-flight queries before
// unmapping — under -race this catches any unmap-under-reader — and
// refuse queries afterwards with ErrNotReady. Also a goroutine-leak
// check: everything the test spawned must exit.
func TestCloseDrainsMappedEngine(t *testing.T) {
	src := warmedEngine(t)
	dir := t.TempDir()
	if err := src.SaveArtifacts(dir, storage.FormatV2); err != nil {
		t.Fatal(err)
	}
	src.Close()
	before := runtime.NumGoroutine()

	eng := loadedEngine(t, dir)
	const workers = 8
	var (
		wg      sync.WaitGroup
		stop    atomic.Bool
		served  atomic.Int64
		refused atomic.Int64
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				user := graph.NodeID((w*131 + i*17) % eng.Graph().NumNodes())
				_, _, err := eng.SearchPlanned(context.Background(), MethodLRW, dataset.TagName(i%4), user, 3, 0)
				switch {
				case err == nil:
					served.Add(1)
				case errors.Is(err, ErrNotReady):
					refused.Add(1)
					return // engine closed under us — expected
				default:
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	// Let the workers get properly in flight, then close concurrently.
	for served.Load() < int64(workers) {
		time.Sleep(time.Millisecond)
	}
	eng.Close()
	stop.Store(true)
	wg.Wait()

	if served.Load() == 0 {
		t.Error("no query was served before close")
	}
	if _, err := eng.Summarize(context.Background(), MethodLRW, 0); !errors.Is(err, ErrNotReady) {
		t.Errorf("Summarize after Close = %v, want ErrNotReady", err)
	}
	if _, _, err := eng.SearchPlanned(context.Background(), MethodLRW, dataset.TagName(0), 1, 3, 0); !errors.Is(err, ErrNotReady) {
		t.Errorf("SearchPlanned after Close = %v, want ErrNotReady", err)
	}
	eng.Close() // idempotent

	// Goroutine-leak check: allow the runtime a moment to reap.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after close", before, runtime.NumGoroutine())
}

// A built (non-mapped) engine keeps the documented Close semantics:
// cached summaries keep serving — a planned query on a warm closed
// engine is a full-tier cache hit.
func TestCloseKeepsServingBuiltEngine(t *testing.T) {
	eng := warmedEngine(t)
	eng.Close()
	ans, err := eng.Run(context.Background(), Query{Text: dataset.TagName(0), User: 1, K: 3})
	if err != nil {
		t.Fatalf("planned query after Close on built engine: %v", err)
	}
	if out := ans.Outcome; out.Tier != TierFull || !out.Complete {
		t.Errorf("planned query after Close on built engine: outcome %+v, want a full/complete cache hit", out)
	}
}
