package repro

// End-to-end integration tests across module boundaries: dataset → engine
// → search, persistence round trips through internal/storage, and
// agreement between the full pipeline and the exact baseline.

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/graph"
	"repro/internal/storage"
	"repro/internal/summary"
	"repro/internal/topics"
)

func buildWorld(t testing.TB) (*graph.Graph, *topics.Space) {
	t.Helper()
	g, err := dataset.GenerateGraph(dataset.GraphConfig{
		Nodes: 1200, MinOutDegree: 2, MaxOutDegree: 10,
		PreferentialBias: 0.7, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	space, err := dataset.GenerateTopics(g, dataset.TopicConfig{
		Tags: 6, TopicsPerTag: 8, MeanTopicNodes: 30, Locality: 0.8, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, space
}

// TestPipelineEndToEnd drives the full flow: generate → build indexes →
// materialize → search with both methods, and sanity-checks the results
// against the exact BaseMatrix ranking (top half overlap).
func TestPipelineEndToEnd(t *testing.T) {
	g, space := buildWorld(t)
	eng, err := core.New(g, space, core.Options{WalkL: 5, WalkR: 16, Theta: 0.01, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.BuildIndexes(context.Background()); err != nil {
		t.Fatal(err)
	}
	matrix, err := baselines.NewMatrix(g, space, 5)
	if err != nil {
		t.Fatal(err)
	}

	const query = "tag001"
	related := space.Related(query)
	if len(related) != 8 {
		t.Fatalf("related topics = %d, want 8", len(related))
	}
	var user graph.NodeID = -1
	for v := 0; v < g.NumNodes(); v++ {
		if g.InDegree(graph.NodeID(v)) >= 4 {
			user = graph.NodeID(v)
			break
		}
	}
	if user < 0 {
		t.Fatal("no well-connected user")
	}

	truth, err := matrix.TopK(int32(user), related, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []core.Method{core.MethodLRW, core.MethodRCL} {
		got, err := eng.SearchTopics(context.Background(), m, related, user, 4)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if len(got) != 4 {
			t.Fatalf("%v returned %d results", m, len(got))
		}
		if p := eval.Precision(got, truth, 4); p < 0.5 {
			t.Errorf("%v precision@4 vs exact = %v, want ≥ 0.5 (got %v, truth %v)", m, p, got, truth)
		}
	}
}

// TestPersistenceRoundTrip saves every offline artifact, reloads it into a
// fresh engine, and verifies searches agree with the original.
func TestPersistenceRoundTrip(t *testing.T) {
	g, space := buildWorld(t)
	eng, err := core.New(g, space, core.Options{WalkL: 4, WalkR: 8, Theta: 0.02, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.BuildIndexes(context.Background()); err != nil {
		t.Fatal(err)
	}
	related := space.Related("tag000")

	// Materialize and collect LRW summaries for the query's topics.
	var collected []summary.Summary
	for _, tt := range related {
		s, err := eng.Summarize(context.Background(), core.MethodLRW, tt)
		if err != nil {
			t.Fatal(err)
		}
		collected = append(collected, s)
	}

	dir := t.TempDir()
	walkPath := filepath.Join(dir, "walks.pit")
	propPath := filepath.Join(dir, "prop.pit")
	sumPath := filepath.Join(dir, "sums.pit")
	if err := storage.SaveWalkIndex(walkPath, eng.Walks()); err != nil {
		t.Fatal(err)
	}
	if err := storage.SavePropIndex(propPath, eng.Prop()); err != nil {
		t.Fatal(err)
	}
	if err := storage.SaveSummaries(sumPath, collected); err != nil {
		t.Fatal(err)
	}

	// A fresh engine preloads the stored summaries; its searches must
	// agree with the original engine (indexes are rebuilt from the same
	// seed, so the propagation index is identical).
	eng2, err := core.New(g, space, core.Options{WalkL: 4, WalkR: 8, Theta: 0.02, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.BuildIndexes(context.Background()); err != nil {
		t.Fatal(err)
	}
	loaded, hs, err := storage.OpenSummaries(sumPath)
	if err != nil {
		t.Fatal(err)
	}
	defer hs.Close() // the preloaded summaries are views into this mapping
	if err := eng2.PreloadSummaries(core.MethodLRW, loaded); err != nil {
		t.Fatal(err)
	}
	if got := eng2.CachedSummaries(core.MethodLRW); got != len(related) {
		t.Fatalf("preloaded %d summaries, want %d", got, len(related))
	}

	for user := graph.NodeID(0); user < 50; user++ {
		a, err := eng.SearchTopics(context.Background(), core.MethodLRW, related, user, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, err := eng2.SearchTopics(context.Background(), core.MethodLRW, related, user, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("user %d: result sizes differ", user)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("user %d rank %d: %+v vs %+v", user, i, a[i], b[i])
			}
		}
	}

	// And the stored indexes decode to structurally identical artifacts.
	walks, hw, err := storage.OpenWalkIndex(walkPath)
	if err != nil {
		t.Fatal(err)
	}
	defer hw.Close()
	if walks.NumNodes() != g.NumNodes() {
		t.Errorf("reloaded walk index covers %d nodes, want %d", walks.NumNodes(), g.NumNodes())
	}
	prop, hp, err := storage.OpenPropIndex(propPath)
	if err != nil {
		t.Fatal(err)
	}
	defer hp.Close()
	if prop.Size() != eng.Prop().Size() {
		t.Errorf("reloaded prop index size %d, want %d", prop.Size(), eng.Prop().Size())
	}
}

// forEachSourceFile parses the imports of every non-test Go file in the
// tree (analyzer fixtures under testdata and dot-directories skipped)
// and hands each to visit — the walk the fence tests below share.
func forEachSourceFile(t *testing.T, visit func(path string, fset *token.FileSet, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		visit(filepath.ToSlash(path), fset, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOneOnDiskFormat fences the persistence stack at one format: gob
// was the retired pitsearch-index-v1, and a second serializer for the
// indexes would grow the fork back. No non-test file in the tree imports
// it; only analyzer fixtures (testdata) are skipped.
func TestOneOnDiskFormat(t *testing.T) {
	forEachSourceFile(t, func(path string, _ *token.FileSet, f *ast.File) {
		for _, imp := range f.Imports {
			if imp.Path.Value == `"encoding/gob"` {
				t.Errorf("%s imports encoding/gob: artifacts have one format, pitsearch-index-v2 (internal/storage)", path)
			}
		}
	})
}

// TestOneUpdatePipeline fences the write side at one pipeline above the
// shard set, publishing one generation at a time: internal/shard does
// not know the pipeline exists (a per-shard wrapper would have to import
// it); the one-engine stream.New and the source-taking shard.NewRouter —
// kept for frozen benchmark/trace.go — have no caller outside their own
// package and benchmark/, and shard.EngineSource no user; internal/stream
// and internal/shard hold no array of atomic pointers (per-shard slots),
// and no type has a Sources method (per-shard engine sources).
// Everything else wires stream.NewSet over all of its shards and
// shard.New over the pipeline's Current.
func TestOneUpdatePipeline(t *testing.T) {
	importName := func(f *ast.File, pkg string) string {
		for _, imp := range f.Imports {
			if imp.Path.Value == pkg {
				if imp.Name != nil {
					return imp.Name.Name
				}
				return pkg[strings.LastIndex(pkg, "/")+1 : len(pkg)-1]
			}
		}
		return ""
	}
	forEachSourceFile(t, func(path string, fset *token.FileSet, f *ast.File) {
		stream, shard := importName(f, `"repro/internal/stream"`), importName(f, `"repro/internal/shard"`)
		frozen := strings.HasPrefix(path, "benchmark/")
		slots := strings.HasPrefix(path, "internal/stream/") || strings.HasPrefix(path, "internal/shard/")
		if stream != "" && strings.HasPrefix(path, "internal/shard/") {
			t.Errorf("%s imports internal/stream: a batch is applied to the deployment, not by the shard layer", path)
		}
		full, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(full, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				x, ok := n.X.(*ast.Ident)
				switch {
				case !ok || frozen:
				case x.Name == stream && n.Sel.Name == "New":
					t.Errorf("%s: uses stream.New; wire stream.NewSet over the whole shard set", fset.Position(n.Pos()))
				case x.Name == shard && (n.Sel.Name == "NewRouter" || n.Sel.Name == "EngineSource"):
					t.Errorf("%s: uses shard.%s; wire shard.New over a generation source", fset.Position(n.Pos()), n.Sel.Name)
				}
			case *ast.ArrayType:
				if ix, ok := n.Elt.(*ast.IndexExpr); ok && slots {
					if sel, ok := ix.X.(*ast.SelectorExpr); ok && sel.Sel.Name == "Pointer" {
						t.Errorf("%s: an array of atomic pointers; publish one core.Generation behind one pointer", fset.Position(n.Pos()))
					}
				}
			case *ast.FuncDecl:
				if n.Recv != nil && n.Name.Name == "Sources" {
					t.Errorf("%s: a Sources method; readers follow one generation (stream.Pipeline.Current)", fset.Position(n.Pos()))
				}
			}
			return true
		})
	})
}
