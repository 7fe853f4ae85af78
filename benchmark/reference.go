package main

// The in-process reference: the same dataset and engine parameters the
// server under test boots with, built from the benchmark's own process.
// A benchmark that got faster by answering wrongly must fail, not win, so
// HTTP answers are compared for equality with core.Engine.Search here,
// and scored against the BasePropagation ranking over full topic node
// sets (the paper's ground truth on its larger datasets, §6.4).

import (
	"context"
	"fmt"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/graph"
	"repro/internal/search"
	"repro/internal/server"
	"repro/internal/topics"
)

// engineOptions are pitserve's flag defaults (-L 6 -R 16 -theta 0.01
// -seed 1): the reference must build exactly what the server builds.
func engineOptions() core.Options {
	return core.Options{WalkL: 6, WalkR: 16, Theta: 0.01, Seed: 1}
}

type reference struct {
	g      *graph.Graph
	sp     *topics.Space
	eng    *core.Engine
	method core.Method
	truth  *baselines.Propagation
	warmMs float64 // wall time of the whole-corpus WarmSummaries
}

// buildReference generates the dataset, builds the indexes and warms
// every summary of the method with the given worker count (≤ 0: all
// cores). The caller closes the engine.
func buildReference(ctx context.Context, preset string, scale float64, method core.Method, warmWorkers int) (*reference, error) {
	g, sp, err := dataset.LoadPresetOrFiles(preset, scale, "", "")
	if err != nil {
		return nil, err
	}
	eng, err := core.New(g, sp, engineOptions())
	if err != nil {
		return nil, err
	}
	if err := eng.BuildIndexes(ctx); err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := eng.WarmSummaries(ctx, method, core.WarmOptions{Workers: warmWorkers}); err != nil {
		return nil, err
	}
	warmMs := ms(time.Since(t0))
	truth, err := baselines.NewPropagation(eng.Prop(), sp)
	if err != nil {
		return nil, err
	}
	return &reference{g: g, sp: sp, eng: eng, method: method, truth: truth, warmMs: warmMs}, nil
}

// expected returns the engine's own answer to each request.
func (r *reference) expected(ctx context.Context, reqs []request, k int) ([][]core.TopicResult, error) {
	out := make([][]core.TopicResult, len(reqs))
	for i, q := range reqs {
		res, err := r.eng.Search(ctx, r.method, q.query(), graph.NodeID(q.User), k)
		if err != nil {
			return nil, fmt.Errorf("reference search %v: %w", q, err)
		}
		out[i] = res
	}
	return out, nil
}

// sameAnswer reports whether an HTTP answer equals the engine's: same
// topics in the same order with bit-identical scores (a float64 survives
// the JSON round trip exactly).
func sameAnswer(got []server.SearchResult, want []core.TopicResult) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Topic != want[i].Topic.Label || got[i].Score != want[i].Score {
			return false
		}
	}
	return true
}

// precision scores one HTTP answer against the ground-truth top-k.
func (r *reference) precision(q request, got []server.SearchResult, k int) (float64, error) {
	truth, err := r.truth.TopK(q.User, r.sp.Related(q.query()), k)
	if err != nil {
		return 0, err
	}
	res := make([]search.Result, len(got))
	for i, row := range got {
		t, ok := r.sp.ByLabel(row.Topic)
		if !ok {
			return 0, fmt.Errorf("answer names unknown topic %q", row.Topic)
		}
		res[i] = search.Result{Topic: t.ID, Score: row.Score}
	}
	return eval.Precision(res, truth, k), nil
}
