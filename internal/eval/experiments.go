package eval

// One function per paper figure. Every function returns a Table whose rows
// mirror the original figure's series; EXPERIMENTS.md records the measured
// values next to the paper's and discusses shape agreement.

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/icmodel"
	"repro/internal/lrw"
	"repro/internal/randwalk"
	"repro/internal/rcl"
	"repro/internal/search"
	"repro/internal/summary"
	"repro/internal/topics"
)

// paperRepBase is the paper's default materialized representative count.
const paperRepBase = 1000

// Fig4 — the paper's dataset summary table (Figure 4), extended with the
// laptop-scale reconstruction actually used here: measured node/edge
// counts, degree statistics and topic-space sizes for every preset.
func (r *Runner) Fig4() (Table, error) {
	t := Table{
		ID:      "fig4",
		Caption: "Datasets (paper vs. this reconstruction)",
		Header: []string{"dataset", "paper nodes", "nodes", "edges", "avg deg",
			"max out-deg", "components", "topics", "mean |V_t|"},
	}
	for _, p := range dataset.Presets() {
		scaled := p.Scale(r.cfg.Scale)
		built, err := scaled.Build()
		if err != nil {
			return Table{}, err
		}
		stats := graph.ComputeStats(built.Graph)
		meanVt := 0
		if n := built.Space.NumTopics(); n > 0 {
			total := 0
			for ti := 0; ti < n; ti++ {
				total += len(built.Space.Nodes(topics.TopicID(ti)))
			}
			meanVt = total / n
		}
		t.Rows = append(t.Rows, []string{
			p.Name,
			fmt.Sprint(p.PaperNodes),
			fmt.Sprint(stats.Nodes),
			fmt.Sprint(stats.Edges),
			fmt.Sprintf("%.1f", stats.AvgOutDegree),
			fmt.Sprint(stats.MaxOutDegree),
			fmt.Sprint(stats.Components),
			fmt.Sprint(built.Space.NumTopics()),
			fmt.Sprint(meanVt),
		})
	}
	return t, nil
}

// timingRow measures one ranker over the workload and returns its average
// per-query latency formatted in ms.
func (r *Runner) timingCell(e *env, ranker baselines.Ranker, k int) (string, error) {
	m, err := r.runWorkload(e, ranker, k)
	if err != nil {
		return "", err
	}
	return ms(m.avgTime), nil
}

// Fig5 — E1: query time of all five methods on data_2k for k ∈
// {10,20,50,100}. Expected shape: BaseMatrix ≫ BaseDijkstra ≫
// BasePropagation ≫ RCL-A ≈ LRW-A, all flat in k.
func (r *Runner) Fig5() (Table, error) {
	e, err := r.environment("data_2k", r.cfg.WalkL, r.cfg.repsFor(paperRepBase))
	if err != nil {
		return Table{}, err
	}
	if err := r.warmSummaries(e); err != nil {
		return Table{}, err
	}
	ks := r.kValuesFor(e, []int{10, 20, 50, 100})
	t := Table{
		ID:      "fig5",
		Caption: "Avg PIT-Search time (ms) on data_2k",
		Header:  append([]string{"method"}, kHeaders(ks)...),
	}
	rankers := []struct {
		name string
		rk   baselines.Ranker
	}{
		{"BaseMatrix", e.matrix},
		{"BaseDijkstra", e.dijkstra},
		{"BasePropagation", e.propag},
		{"RCL-A", methodRanker{e.eng, core.MethodRCL}},
		{"LRW-A", methodRanker{e.eng, core.MethodLRW}},
	}
	for _, rr := range rankers {
		row := []string{rr.name}
		for _, k := range ks {
			cell, err := r.timingCell(e, rr.rk, k)
			if err != nil {
				return Table{}, err
			}
			row = append(row, cell)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig6 — E2: query time on data_3m for k ∈ {100,200,300,500}; BaseMatrix
// omitted (the paper drops it after data_2k for being too slow).
func (r *Runner) Fig6() (Table, error) {
	e, err := r.environment("data_3m", r.cfg.WalkL, r.cfg.repsFor(paperRepBase))
	if err != nil {
		return Table{}, err
	}
	if err := r.warmSummaries(e); err != nil {
		return Table{}, err
	}
	ks := r.kValuesFor(e, []int{100, 200, 300, 500})
	t := Table{
		ID:      "fig6",
		Caption: "Avg PIT-Search time (ms) on data_3m (scaled)",
		Header:  append([]string{"method"}, kHeaders(ks)...),
	}
	rankers := []struct {
		name string
		rk   baselines.Ranker
	}{
		{"BaseDijkstra", e.dijkstra},
		{"BasePropagation", e.propag},
		{"RCL-A", methodRanker{e.eng, core.MethodRCL}},
		{"LRW-A", methodRanker{e.eng, core.MethodLRW}},
	}
	for _, rr := range rankers {
		row := []string{rr.name}
		for _, k := range ks {
			cell, err := r.timingCell(e, rr.rk, k)
			if err != nil {
				return Table{}, err
			}
			row = append(row, cell)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig7 — E3: query time for the top-100 as the materialized representative
// count varies (paper: 1000…6000 per topic). RCL-A/LRW-A slow down with
// more representatives; the baselines are unaffected.
func (r *Runner) Fig7() (Table, error) {
	paperReps := []int{1000, 2000, 3000, 4000, 5000, 6000}
	t := Table{
		ID:      "fig7",
		Caption: "Avg top-100 PIT-Search time (ms) on data_3m vs #representatives",
		Header:  []string{"reps(paper)", "reps(ours)", "BaseDijkstra", "BasePropagation", "RCL-A", "LRW-A"},
	}
	for _, pr := range paperReps {
		reps := r.cfg.repsFor(pr)
		e, err := r.environment("data_3m", r.cfg.WalkL, reps)
		if err != nil {
			return Table{}, err
		}
		if err := r.warmSummaries(e); err != nil {
			return Table{}, err
		}
		k := r.kValuesFor(e, []int{100})[0]
		row := []string{fmt.Sprint(pr), fmt.Sprint(reps)}
		for _, rk := range []baselines.Ranker{
			e.dijkstra, e.propag,
			methodRanker{e.eng, core.MethodRCL},
			methodRanker{e.eng, core.MethodLRW},
		} {
			cell, err := r.timingCell(e, rk, k)
			if err != nil {
				return Table{}, err
			}
			row = append(row, cell)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// scalability is shared by Fig8 (1000 reps) and Fig9 (2000 reps): average
// top-100 time per method across all four datasets.
func (r *Runner) scalability(id string, paperReps int) (Table, error) {
	t := Table{
		ID:      id,
		Caption: fmt.Sprintf("Avg top-100 PIT-Search time (ms), %d representatives", paperReps),
		Header:  []string{"dataset", "BaseDijkstra", "BasePropagation", "RCL-A", "LRW-A"},
	}
	for _, name := range []string{"data_2k", "data_350k", "data_1.2m", "data_3m"} {
		e, err := r.environment(name, r.cfg.WalkL, r.cfg.repsFor(paperReps))
		if err != nil {
			return Table{}, err
		}
		if err := r.warmSummaries(e); err != nil {
			return Table{}, err
		}
		k := r.kValuesFor(e, []int{100})[0]
		row := []string{name}
		for _, rk := range []baselines.Ranker{
			e.dijkstra, e.propag,
			methodRanker{e.eng, core.MethodRCL},
			methodRanker{e.eng, core.MethodLRW},
		} {
			cell, err := r.timingCell(e, rk, k)
			if err != nil {
				return Table{}, err
			}
			row = append(row, cell)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig8 — E4.
func (r *Runner) Fig8() (Table, error) { return r.scalability("fig8", 1000) }

// Fig9 — E5.
func (r *Runner) Fig9() (Table, error) { return r.scalability("fig9", 2000) }

// Fig10 — E6: precision against the BaseMatrix ground truth on data_2k.
// Expected: BaseDijkstra lowest, then RCL-A (≈0.7), BasePropagation ≈
// LRW-A (≈0.85), BasePropagation ≈ 1 at small k.
func (r *Runner) Fig10() (Table, error) {
	e, err := r.environment("data_2k", r.cfg.WalkL, r.cfg.repsFor(paperRepBase))
	if err != nil {
		return Table{}, err
	}
	if err := r.warmSummaries(e); err != nil {
		return Table{}, err
	}
	ks := r.kValuesFor(e, []int{10, 20, 50, 100})
	return r.precisionTable("fig10", "Precision vs BaseMatrix ground truth (data_2k)", e, e.matrix, ks)
}

// Fig11 — E7: precision against BasePropagation on data_3m.
func (r *Runner) Fig11() (Table, error) {
	e, err := r.environment("data_3m", r.cfg.WalkL, r.cfg.repsFor(paperRepBase))
	if err != nil {
		return Table{}, err
	}
	if err := r.warmSummaries(e); err != nil {
		return Table{}, err
	}
	ks := r.kValuesFor(e, []int{100, 200, 300, 500})
	return r.precisionTable("fig11", "Precision vs BasePropagation (data_3m scaled)", e, e.propag, ks)
}

// precisionTable scores BaseDijkstra, RCL-A and LRW-A against a reference
// ranker at the given k values. When the reference is BaseMatrix,
// BasePropagation is scored too (Figure 10 includes it).
func (r *Runner) precisionTable(id, caption string, e *env, reference baselines.Ranker, ks []int) (Table, error) {
	truth, err := r.runWorkload(e, reference, maxTopicCount(e))
	if err != nil {
		return Table{}, err
	}
	t := Table{ID: id, Caption: caption, Header: append([]string{"method"}, kHeaders(ks)...)}
	contestants := []struct {
		name string
		rk   baselines.Ranker
	}{
		{"BaseDijkstra", e.dijkstra},
		{"RCL-A", methodRanker{e.eng, core.MethodRCL}},
		{"LRW-A", methodRanker{e.eng, core.MethodLRW}},
	}
	if reference == baselines.Ranker(e.matrix) {
		contestants = append(contestants, struct {
			name string
			rk   baselines.Ranker
		}{"BasePropagation", e.propag})
	}
	for _, c := range contestants {
		row := []string{c.name}
		for _, k := range ks {
			// Run at each k: the dynamic search's pruning and expansion
			// behaviour — and therefore its answer set — depends on k.
			got, err := r.runWorkload(e, c.rk, k)
			if err != nil {
				return Table{}, err
			}
			row = append(row, fmt.Sprintf("%.3f", avgPrecision(got, truth, k)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig12 — E8: precision at k=100 as the representative count varies.
// RCL-A improves with more representatives; LRW-A stays high.
func (r *Runner) Fig12() (Table, error) {
	paperReps := []int{1000, 2000, 3000, 4000, 5000, 6000}
	t := Table{
		ID:      "fig12",
		Caption: "Precision vs #representatives (data_3m scaled, k=100)",
		Header:  []string{"reps(paper)", "reps(ours)", "BaseDijkstra", "RCL-A", "LRW-A"},
	}
	for _, pr := range paperReps {
		reps := r.cfg.repsFor(pr)
		e, err := r.environment("data_3m", r.cfg.WalkL, reps)
		if err != nil {
			return Table{}, err
		}
		if err := r.warmSummaries(e); err != nil {
			return Table{}, err
		}
		k := r.kValuesFor(e, []int{100})[0]
		truth, err := r.runWorkload(e, e.propag, maxTopicCount(e))
		if err != nil {
			return Table{}, err
		}
		row := []string{fmt.Sprint(pr), fmt.Sprint(reps)}
		for _, rk := range []baselines.Ranker{
			e.dijkstra,
			methodRanker{e.eng, core.MethodRCL},
			methodRanker{e.eng, core.MethodLRW},
		} {
			got, err := r.runWorkload(e, rk, k)
			if err != nil {
				return Table{}, err
			}
			row = append(row, fmt.Sprintf("%.3f", avgPrecision(got, truth, k)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// spaceCost is shared by Fig13 (1000 reps) and Fig14 (2000 reps): per-query
// allocation churn (KB) per method per dataset. BaseMatrix is measured on
// data_2k only, as in the paper.
func (r *Runner) spaceCost(id string, paperReps int) (Table, error) {
	t := Table{
		ID:      id,
		Caption: fmt.Sprintf("Per-query allocation (KB) at k=100, %d representatives", paperReps),
		Header:  []string{"dataset", "BaseMatrix", "BaseDijkstra", "BasePropagation", "RCL-A", "LRW-A"},
	}
	for _, name := range []string{"data_2k", "data_350k", "data_1.2m", "data_3m"} {
		e, err := r.environment(name, r.cfg.WalkL, r.cfg.repsFor(paperReps))
		if err != nil {
			return Table{}, err
		}
		if err := r.warmSummaries(e); err != nil {
			return Table{}, err
		}
		k := r.kValuesFor(e, []int{100})[0]
		row := []string{name}
		if name == "data_2k" {
			m, err := r.runWorkload(e, e.matrix, k)
			if err != nil {
				return Table{}, err
			}
			// BaseMatrix's true footprint is its dense vectors, which are
			// pre-allocated; charge them explicitly like the paper does.
			row = append(row, fmt.Sprintf("%.1f", m.allocKB+float64(float64(e.matrix.MemoryBytes())/1024)))
		} else {
			row = append(row, "-")
		}
		for _, rk := range []baselines.Ranker{
			e.dijkstra, e.propag,
			methodRanker{e.eng, core.MethodRCL},
			methodRanker{e.eng, core.MethodLRW},
		} {
			m, err := r.runWorkload(e, rk, k)
			if err != nil {
				return Table{}, err
			}
			row = append(row, fmt.Sprintf("%.1f", m.allocKB))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig13 — E9.
func (r *Runner) Fig13() (Table, error) { return r.spaceCost("fig13", 1000) }

// Fig14 — E10.
func (r *Runner) Fig14() (Table, error) { return r.spaceCost("fig14", 2000) }

// Fig15 — E11: per-topic materialization cost. Upper half: RCL-A build
// time/space as the sample rate |V′|/|V| varies. Lower half: LRW-A build
// time/space as R varies. The paper's finding: RCL-A's time is dominated
// by centroid computation (insensitive to the sample rate) and ~40× LRW-A.
func (r *Runner) Fig15() (Table, error) {
	e, err := r.environment("data_3m", r.cfg.WalkL, r.cfg.repsFor(paperRepBase))
	if err != nil {
		return Table{}, err
	}
	sampleTopics := r.materializationSample(e)
	t := Table{
		ID:      "fig15",
		Caption: "Per-topic summarization cost (data_3m scaled)",
		Header:  []string{"setting", "time (ms/topic)", "alloc (KB/topic)"},
	}

	for _, rate := range []float64{0.01, 0.05, 0.10} {
		sum, err := core.New(e.ds.Graph, e.ds.Space, core.Options{
			WalkL: r.cfg.WalkL, WalkR: r.cfg.WalkR, Theta: r.cfg.Theta, Seed: r.cfg.Seed,
			RCL: rclOptionsWithRate(r.cfg.repsFor(paperRepBase), r.cfg.Seed, rate),
			LRW: lrwOptions(r.cfg.repsFor(paperRepBase)),
		})
		if err != nil {
			return Table{}, err
		}
		if err := sum.BuildIndexes(context.Background()); err != nil {
			return Table{}, err
		}
		dur, kb, err := summarizeCost(sum, core.MethodRCL, sampleTopics)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("RCL-A sample %.0f%%", rate*100), ms(dur), fmt.Sprintf("%.1f", kb),
		})
	}

	for _, paperR := range []int{100, 200, 300} {
		ourR := maxI(4, int(float64(paperR)*r.cfg.RepScale*4)) // R scales like reps but stays ≥ 4
		sum, err := core.New(e.ds.Graph, e.ds.Space, core.Options{
			WalkL: r.cfg.WalkL, WalkR: ourR, Theta: r.cfg.Theta, Seed: r.cfg.Seed,
			LRW: lrwOptions(r.cfg.repsFor(paperRepBase)),
		})
		if err != nil {
			return Table{}, err
		}
		if err := sum.BuildIndexes(context.Background()); err != nil {
			return Table{}, err
		}
		dur, kb, err := summarizeCost(sum, core.MethodLRW, sampleTopics)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("LRW-A R=%d (ours %d)", paperR, ourR), ms(dur), fmt.Sprintf("%.1f", kb),
		})
	}
	return t, nil
}

// Fig16 — E12: per-topic summarization time as L varies. RCL-A's cost
// grows steeply with L (bigger groups, costlier centroids); LRW-A's is
// nearly flat.
func (r *Runner) Fig16() (Table, error) {
	t := Table{
		ID:      "fig16",
		Caption: "Per-topic summarization time (ms) vs L (data_3m scaled)",
		Header:  []string{"L", "RCL-A", "LRW-A"},
	}
	for _, L := range []int{2, 3, 4, 5, 6} {
		e, err := r.environment("data_3m", L, r.cfg.repsFor(paperRepBase))
		if err != nil {
			return Table{}, err
		}
		sampleTopics := r.materializationSample(e)
		rclDur, _, err := summarizeCost(e.eng, core.MethodRCL, sampleTopics)
		if err != nil {
			return Table{}, err
		}
		lrwDur, _, err := summarizeCost(e.eng, core.MethodLRW, sampleTopics)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(L), ms(rclDur), ms(lrwDur)})
	}
	return t, nil
}

// FigS1 — supplement (not a paper figure): per-topic summarization cost as
// |V_t| grows, on the data_3m graph. The paper's Figure 15 finding that
// RCL-A materialization is ~40× more expensive than LRW-A holds at its
// scale (|V_t| = 20,000) because RCL-A's pair grouping is quadratic in the
// topic node count while LRW-A's PageRank is linear in the graph size;
// this sweep exposes the crossover directly.
func (r *Runner) FigS1() (Table, error) {
	p, err := dataset.PresetByName("data_3m")
	if err != nil {
		return Table{}, err
	}
	p = p.Scale(r.cfg.Scale)
	g, err := dataset.GenerateGraph(p.Graph)
	if err != nil {
		return Table{}, err
	}
	walks, err := randwalk.Build(context.Background(), g, randwalk.Options{L: r.cfg.WalkL, R: r.cfg.WalkR, Seed: r.cfg.Seed})
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:      "figS1",
		Caption: "Per-topic summarization time (ms) vs |V_t| (data_3m graph)",
		Header:  []string{"|V_t|", "RCL-A", "LRW-A", "RCL/LRW"},
	}
	reps := r.cfg.repsFor(paperRepBase)
	for _, size := range []int{100, 300, 1000, 3000} {
		if size > g.NumNodes()/2 {
			continue
		}
		space, err := dataset.GenerateTopics(g, dataset.TopicConfig{
			Tags: 1, TopicsPerTag: 3, MeanTopicNodes: size,
			Locality: 0.7, Seed: int64(size),
		})
		if err != nil {
			return Table{}, err
		}
		rclSum, err := rcl.New(g, space, walks, rclOptions(reps, r.cfg.Seed))
		if err != nil {
			return Table{}, err
		}
		lrwSum, err := lrw.New(g, space, walks, lrwOptions(reps))
		if err != nil {
			return Table{}, err
		}
		nTopics := space.NumTopics()
		// Untimed first topic per method, as in summarizeCost.
		if _, err := rclSum.Summarize(context.Background(), 0); err != nil {
			return Table{}, err
		}
		if _, err := lrwSum.Summarize(context.Background(), 0); err != nil {
			return Table{}, err
		}
		start := time.Now()
		for ti := 0; ti < nTopics; ti++ {
			if _, err := rclSum.Summarize(context.Background(), topics.TopicID(ti)); err != nil {
				return Table{}, err
			}
		}
		rclDur := time.Since(start) / time.Duration(nTopics)
		start = time.Now()
		for ti := 0; ti < nTopics; ti++ {
			if _, err := lrwSum.Summarize(context.Background(), topics.TopicID(ti)); err != nil {
				return Table{}, err
			}
		}
		lrwDur := time.Since(start) / time.Duration(nTopics)
		ratio := "-"
		if lrwDur > 0 {
			ratio = fmt.Sprintf("%.2f", float64(rclDur)/float64(lrwDur))
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(size), ms(rclDur), ms(lrwDur), ratio})
	}
	return t, nil
}

// FigS2 — supplement (not a paper figure): agreement between the paper's
// transition-product influence model and the independent-cascade model of
// the influence-maximization literature (§7 refs [8, 22]) on data_2k.
// High agreement supports using BaseMatrix as ground truth; the gap shows
// where the product model's additive path aggregation diverges from IC's
// noisy-or.
func (r *Runner) FigS2() (Table, error) {
	e, err := r.environment("data_2k", r.cfg.WalkL, r.cfg.repsFor(paperRepBase))
	if err != nil {
		return Table{}, err
	}
	est, err := icmodel.New(e.ds.Graph, icmodel.Options{Rounds: 100, Seed: r.cfg.Seed})
	if err != nil {
		return Table{}, err
	}
	if err := r.warmSummaries(e); err != nil {
		return Table{}, err
	}
	ks := r.kValuesFor(e, []int{10, 50})
	t := Table{
		ID:      "figS2",
		Caption: "Precision@k vs the independent-cascade ranking (data_2k)",
		Header:  append([]string{"method"}, kHeaders(ks)...),
	}
	// IC truth over the first query only (Monte-Carlo cost).
	q := e.work.Queries[0]
	related := e.ds.Space.Related(q)
	contestants := []struct {
		name string
		rk   baselines.Ranker
	}{
		{"BaseMatrix", e.matrix},
		{"LRW-A", methodRanker{e.eng, core.MethodLRW}},
	}
	for _, c := range contestants {
		row := []string{c.name}
		for _, k := range ks {
			total, n := 0.0, 0
			for _, u := range e.work.Users {
				truth, err := est.TopK(int32(u), related, len(related), e.ds.Space)
				if err != nil {
					return Table{}, err
				}
				got, err := c.rk.TopK(int32(u), related, k)
				if err != nil {
					return Table{}, err
				}
				total += Precision(got, truth, k)
				n++
			}
			row = append(row, fmt.Sprintf("%.3f", total/float64(n)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// FigS3 — supplement (not a paper figure): ablation of the online search's
// design choices on data_3m. The paper credits its low latency to pruning
// ("low-quality topics are pruned … by probing as few nodes as possible");
// this experiment turns the knobs off one at a time.
func (r *Runner) FigS3() (Table, error) {
	e, err := r.environment("data_3m", r.cfg.WalkL, r.cfg.repsFor(paperRepBase))
	if err != nil {
		return Table{}, err
	}
	if err := r.warmSummaries(e); err != nil {
		return Table{}, err
	}
	k := r.kValuesFor(e, []int{100})[0]
	settings := []struct {
		name string
		opts search.Options
	}{
		{"default (prune, depth 3, frontier 256)", search.Options{}},
		{"no pruning", search.Options{DisablePruning: true}},
		{"depth 1", search.Options{MaxExpandDepth: 1}},
		{"frontier 16", search.Options{MaxFrontier: 16}},
		{"frontier unbounded", search.Options{MaxFrontier: -1}},
	}
	t := Table{
		ID:      "figS3",
		Caption: fmt.Sprintf("LRW-A top-%d search ablation (ms/query, data_3m scaled)", k),
		Header:  []string{"setting", "time (ms)"},
	}
	for _, setting := range settings {
		searcher, err := search.New(e.eng.Prop(), setting.opts)
		if err != nil {
			return Table{}, err
		}
		var total time.Duration
		n := 0
		for _, q := range e.work.Queries {
			related := e.ds.Space.Related(q)
			sums := make([]summary.Summary, 0, len(related))
			for _, tt := range related {
				s, err := e.eng.Summarize(context.Background(), core.MethodLRW, tt)
				if err != nil {
					return Table{}, err
				}
				sums = append(sums, s)
			}
			for _, u := range e.work.Users {
				start := time.Now()
				if _, err := searcher.TopK(context.Background(), u, sums, k); err != nil {
					return Table{}, err
				}
				total += time.Since(start)
				n++
			}
		}
		t.Rows = append(t.Rows, []string{setting.name, ms(total / time.Duration(n))})
	}
	return t, nil
}

// materializationSample picks the topics of the first workload query as
// the per-topic cost sample.
func (r *Runner) materializationSample(e *env) []topics.TopicID {
	if len(e.work.Queries) == 0 {
		return nil
	}
	related := e.ds.Space.Related(e.work.Queries[0])
	if len(related) > 6 {
		related = related[:6]
	}
	return related
}

// summarizeCost measures average per-topic summarization time and
// allocation for the given engine and method over the sample topics, on a
// warm kernel.
// Cached summaries are invalidated first so the measurement always covers
// real work (a shared env may have warmed them for other experiments).
func summarizeCost(eng *core.Engine, m core.Method, sample []topics.TopicID) (time.Duration, float64, error) {
	if len(sample) == 0 {
		return 0, 0, fmt.Errorf("eval: empty materialization sample")
	}
	for _, t := range sample {
		eng.InvalidateTopic(t)
	}
	// One untimed summarization first. Both kernels keep state per (graph,
	// walks) that the first topic builds and a corpus of thousands
	// amortises — LRW-A's propagation plan is ≈ 135 ms on the data_3m graph —
	// and a six-topic sample on a cold scratch would charge a sixth of it to
	// every topic.
	if _, err := eng.Summarize(context.Background(), m, sample[0]); err != nil {
		return 0, 0, err
	}
	eng.InvalidateTopic(sample[0])
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for _, t := range sample {
		if _, err := eng.Summarize(context.Background(), m, t); err != nil {
			return 0, 0, err
		}
	}
	dur := time.Since(start) / time.Duration(len(sample))
	runtime.ReadMemStats(&ms1)
	kb := float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(len(sample)) / 1024
	return dur, kb, nil
}

func maxTopicCount(e *env) int {
	maxN := 0
	for _, q := range e.work.Queries {
		if n := len(e.ds.Space.Related(q)); n > maxN {
			maxN = n
		}
	}
	return maxN
}

func kHeaders(ks []int) []string {
	out := make([]string, len(ks))
	for i, k := range ks {
		out[i] = fmt.Sprintf("k=%d", k)
	}
	return out
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}
