package stream

import (
	"context"
	"io"
	"log"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
)

// BenchmarkFlush times one streamed batch end to end in process — Apply,
// the affected set, both index patches, the swap — with the benchmark
// harness's batch shape on its engine options: 16 edges the graph does not
// have, flushed as one batch, then their deletes as the next, so the graph
// returns to where it started every iteration. data_350k is the harness's
// dataset, the flush behind update_visible_p50_ms.
func BenchmarkFlush(b *testing.B) {
	for _, preset := range []string{"data_2k", "data_350k"} {
		b.Run(preset, func(b *testing.B) {
			if preset == "data_350k" && testing.Short() {
				b.Skip("data_350k build skipped under -short")
			}
			benchFlush(b, preset)
		})
	}
}

func benchFlush(b *testing.B, preset string) {
	p, err := dataset.PresetByName(preset)
	if err != nil {
		b.Fatal(err)
	}
	ds, err := p.Build()
	if err != nil {
		b.Fatal(err)
	}
	eng, err := core.New(ds.Graph, ds.Space, core.Options{WalkL: 6, WalkR: 16, Theta: 0.01, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if err := eng.BuildIndexes(ctx); err != nil {
		b.Fatal(err)
	}
	const edges = 16
	rng := rand.New(rand.NewSource(1))
	var upserts, deletes []Event
	seen := map[[2]graph.NodeID]bool{}
	for len(upserts) < edges {
		u, v := graph.NodeID(rng.Intn(ds.Graph.NumNodes())), graph.NodeID(rng.Intn(ds.Graph.NumNodes()))
		if u == v || seen[[2]graph.NodeID{u, v}] || ds.Graph.HasEdge(u, v) {
			continue
		}
		seen[[2]graph.NodeID{u, v}] = true
		upserts = append(upserts, Event{From: u, To: v, Weight: 0.1 + 0.8*rng.Float64()})
		deletes = append(deletes, Event{From: u, To: v})
	}
	pipe, err := NewSet([]*core.Engine{eng}, Config{BatchSize: 1 << 20, Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		pipe.Stop()
		pipe.Current().Engines[0].Close()
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, batch := range [][]Event{upserts, deletes} {
			if err := pipe.Submit(batch...); err != nil {
				b.Fatal(err)
			}
			if err := pipe.Flush(ctx); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(2*b.N), "ms/flush")
}
