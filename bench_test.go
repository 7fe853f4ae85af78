package repro

// One benchmark per paper figure (Figures 5–16, §6). Each benchmark
// regenerates its experiment through the internal/eval harness; dataset
// and index construction is cached across iterations inside the shared
// runner, so the measured time is the experiment's query/summarization
// workload itself. Set -bench-scale via BENCH_SCALE to trade fidelity for
// speed (default 0.35 keeps `go test -bench=.` in a few minutes; the
// EXPERIMENTS.md tables were produced by cmd/pitbench at scale 1).

import (
	"os"
	"strconv"
	"sync"
	"testing"

	"repro/internal/eval"
)

var benchRunner = sync.OnceValue(func() *eval.Runner {
	cfg := eval.DefaultConfig()
	cfg.Scale = 0.35
	cfg.Queries = 2
	cfg.Users = 2
	if s := os.Getenv("BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			cfg.Scale = v
		}
	}
	r, err := eval.NewRunner(cfg)
	if err != nil {
		panic(err)
	}
	return r
})

func benchFigure(b *testing.B, id string) {
	b.Helper()
	r := benchRunner()
	// Warm: build datasets/indexes once outside the timed region.
	if _, err := r.Run(id); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(id); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig04DatasetSummary(b *testing.B)        { benchFigure(b, "fig4") }
func BenchmarkFig05TimeCostData2k(b *testing.B)        { benchFigure(b, "fig5") }
func BenchmarkFig06TimeCostData3m(b *testing.B)        { benchFigure(b, "fig6") }
func BenchmarkFig07TimeVsRepCount(b *testing.B)        { benchFigure(b, "fig7") }
func BenchmarkFig08Scalability1000Reps(b *testing.B)   { benchFigure(b, "fig8") }
func BenchmarkFig09Scalability2000Reps(b *testing.B)   { benchFigure(b, "fig9") }
func BenchmarkFig10PrecisionData2k(b *testing.B)       { benchFigure(b, "fig10") }
func BenchmarkFig11PrecisionData3m(b *testing.B)       { benchFigure(b, "fig11") }
func BenchmarkFig12PrecisionVsRepCount(b *testing.B)   { benchFigure(b, "fig12") }
func BenchmarkFig13SpaceCost1000Reps(b *testing.B)     { benchFigure(b, "fig13") }
func BenchmarkFig14SpaceCost2000Reps(b *testing.B)     { benchFigure(b, "fig14") }
func BenchmarkFig15IndexConstructionCost(b *testing.B) { benchFigure(b, "fig15") }
func BenchmarkFig16IndexTimeVsL(b *testing.B)          { benchFigure(b, "fig16") }
func BenchmarkFigS1VtCrossover(b *testing.B)           { benchFigure(b, "figS1") }
func BenchmarkFigS2ICAgreement(b *testing.B)           { benchFigure(b, "figS2") }
func BenchmarkFigS3SearchAblation(b *testing.B)        { benchFigure(b, "figS3") }
