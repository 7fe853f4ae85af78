package shard_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/shard"
	"repro/internal/topics"
)

// goldenWorld is larger per tag than the differential world so that
// k = 10 is a real cut (14 topics a tag) and the 3k over-fetch of the
// diversified path has something to clamp against.
var goldenWorld = sync.OnceValues(func() (*graph.Graph, *topics.Space) {
	g, err := dataset.GenerateGraph(dataset.GraphConfig{
		Nodes: 400, MinOutDegree: 2, MaxOutDegree: 6, Seed: 23,
	})
	if err != nil {
		panic(err)
	}
	space, err := dataset.GenerateTopics(g, dataset.TopicConfig{
		Tags: 3, TopicsPerTag: 14, MeanTopicNodes: 12, Locality: 0.7, Seed: 23,
	})
	if err != nil {
		panic(err)
	}
	return g, space
})

// goldenSweep hashes (topic id, float64 bits of the score) of every
// answer of the fixed query grid through r.Run.
func goldenSweep(t *testing.T, h io.Writer, r core.Runner) {
	t.Helper()
	ctx := context.Background()
	var buf [12]byte
	for _, m := range []core.Method{core.MethodLRW, core.MethodRCL} {
		for tag := 0; tag < 3; tag++ {
			for _, user := range []graph.NodeID{0, 7, 91, 203, 399} {
				for _, k := range []int{1, 10, 0} {
					for _, lambda := range []float64{0, 0.5} {
						q := core.Query{Method: m, Text: dataset.TagName(tag), User: user, K: k, Lambda: lambda, Fidelity: core.FidelityFull}
						ans, err := r.Run(ctx, q)
						if err != nil {
							t.Fatalf("%+v: %v", q, err)
						}
						binary.LittleEndian.PutUint32(buf[:4], uint32(len(ans.Results)))
						h.Write(buf[:4])
						for _, r := range ans.Results {
							binary.LittleEndian.PutUint32(buf[:4], uint32(r.Topic.ID))
							binary.LittleEndian.PutUint64(buf[4:], math.Float64bits(r.Score))
							h.Write(buf[:])
						}
					}
				}
			}
		}
	}
}

// goldenAnswers is the byte-identity pin of the whole online path: one
// SHA-256 over every answer of {LRW-A, RCL-A} × k ∈ {1, 10, all} ×
// λ ∈ {0, 0.5} × pruning {on, off} × {single engine, router at
// N ∈ {1, 2, 7, 31}}. It was generated at the commit before the query
// surface collapsed onto Run — through Engine.Search/SearchDiverse and
// Router.Search/SearchDiverse, i.e. through the then-separate
// Searcher.run and Router.lockstep loops — and is the independent check
// on search.Drive now that those are gone. It must never change without
// a deliberate, explained re-pin.
const goldenAnswers = "51ff9e56bf0fa5e2b7caa9a92646d1a7e5728d50b082dd5dd5e34d704ddf826f"

func TestGoldenAnswers(t *testing.T) {
	g, space := goldenWorld()
	ctx := context.Background()
	h := sha256.New()
	for _, pruning := range []bool{true, false} {
		opts := worldOptions()
		opts.Search.DisablePruning = !pruning
		single, err := core.New(g, space, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := single.BuildIndexes(ctx); err != nil {
			t.Fatal(err)
		}
		goldenSweep(t, h, single)
		single.Close()
		for _, n := range []int{1, 2, 7, 31} {
			engines, err := shard.BuildEngines(ctx, g, space, opts, n)
			if err != nil {
				t.Fatal(err)
			}
			part, err := shard.NewPartitioner(space, n)
			if err != nil {
				t.Fatal(err)
			}
			r, err := shard.New(part, core.Static(engines...), shard.Config{})
			if err != nil {
				t.Fatal(err)
			}
			goldenSweep(t, h, r)
			closeEngines(engines)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenAnswers {
		t.Fatalf("golden answers hash = %s, want %s", got, goldenAnswers)
	}
}
