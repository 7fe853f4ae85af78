// Command pitsearch runs one personalized influential topic search: it
// loads (or generates) a dataset, builds the offline indexes, materializes
// the q-related topic summaries, and prints the top-k topics for the query
// user under the chosen summarization method.
//
// Usage:
//
//	pitsearch -preset data_2k -query tag003 -user 42 -k 5
//	pitsearch -graph g.tsv -topics t.tsv -method rcl -query tag001 -user 7
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
)

func main() {
	var (
		preset    = flag.String("preset", "data_2k", "dataset preset (ignored when -graph/-topics are given)")
		scale     = flag.Float64("scale", 1, "preset scale factor")
		graphIn   = flag.String("graph", "", "graph TSV file (with -topics, replaces the preset)")
		topicsIn  = flag.String("topics", "", "topic-space TSV file")
		method    = flag.String("method", "lrw", "summarization method: lrw or rcl")
		query     = flag.String("query", "tag000", "keyword query")
		user      = flag.Int("user", 0, "query user node ID")
		k         = flag.Int("k", 10, "number of topics to return")
		theta     = flag.Float64("theta", 0.01, "propagation-index threshold θ")
		walkL     = flag.Int("L", 6, "random-walk length L")
		walkR     = flag.Int("R", 16, "random walks per node R")
		seed      = flag.Int64("seed", 1, "RNG seed")
		quietFlag = flag.Bool("quiet", false, "print only the result rows")
		diversity = flag.Float64("diversity", 0, "diversification strength λ ∈ [0,1] (0 = plain ranking)")
		trace     = flag.Bool("trace", false, "print search diagnostics (pruning, expansion, rep consumption)")
		warm      = flag.Bool("warm", false, "warm every topic summary before searching (batch/eval runs)")
		indexDir  = flag.String("index-dir", "", "artifact directory: load prebuilt indexes from it when populated, save freshly built ones into it otherwise")
	)
	flag.Parse()

	if err := run(*preset, *scale, *graphIn, *topicsIn, *method, *query, *user, *k,
		*theta, *walkL, *walkR, *seed, *quietFlag, *diversity, *trace, *warm,
		*indexDir); err != nil {
		fmt.Fprintln(os.Stderr, "pitsearch:", err)
		os.Exit(1)
	}
}

func run(preset string, scale float64, graphIn, topicsIn, method, query string,
	user, k int, theta float64, walkL, walkR int, seed int64, quiet bool,
	diversity float64, trace, warm bool, indexDir string) error {

	g, sp, err := dataset.LoadPresetOrFiles(preset, scale, graphIn, topicsIn)
	if err != nil {
		return err
	}
	var m core.Method
	switch method {
	case "lrw":
		m = core.MethodLRW
	case "rcl":
		m = core.MethodRCL
	default:
		return fmt.Errorf("unknown method %q (want lrw or rcl)", method)
	}
	if user < 0 || user >= g.NumNodes() {
		return fmt.Errorf("user %d outside graph (0..%d)", user, g.NumNodes()-1)
	}

	eng, err := core.New(g, sp, core.Options{
		WalkL: walkL, WalkR: walkR, Theta: theta, Seed: seed,
	})
	if err != nil {
		return err
	}
	// Cold-start from the artifact directory when it holds a snapshot;
	// otherwise build from scratch (and persist below, after the optional
	// warm, so saved artifacts include the materialized summaries).
	loaded := false
	start := time.Now()
	if indexDir != "" && core.ArtifactsExist(indexDir) {
		if err := eng.LoadArtifacts(indexDir); err != nil {
			return fmt.Errorf("load artifacts from %s: %w", indexDir, err)
		}
		loaded = true
	} else if err := eng.BuildIndexes(context.Background()); err != nil {
		return err
	}
	defer eng.Close()
	buildTime := time.Since(start)

	// -warm materializes the whole corpus up front — the batch/eval
	// shape, where one process answers many queries and the per-topic
	// summarization cost must not land on the first search of each topic.
	var warmTime time.Duration
	if warm {
		start = time.Now()
		if err := eng.WarmSummaries(context.Background(), m, core.WarmOptions{}); err != nil {
			return err
		}
		warmTime = time.Since(start)
	}

	if indexDir != "" && !loaded {
		if err := core.WriteArtifacts(indexDir, eng); err != nil {
			return fmt.Errorf("save artifacts to %s: %w", indexDir, err)
		}
	}

	start = time.Now()
	ans, err := eng.Run(context.Background(), core.Query{
		Method: m, Text: query, User: graph.NodeID(user), K: k, Lambda: diversity,
		Fidelity: core.FidelityFull, Trace: trace,
	})
	if err != nil {
		return err
	}
	res := ans.Results
	searchTime := time.Since(start)

	if !quiet {
		fmt.Printf("dataset: %d users, %d links, %d topics\n", g.NumNodes(), g.NumEdges(), sp.NumTopics())
		if warm {
			fmt.Printf("warmed %d topic summaries in %v\n", sp.NumTopics(), warmTime.Round(time.Millisecond))
		}
		how := "built"
		if loaded {
			how = "loaded from " + indexDir
		}
		fmt.Printf("indexes %s in %v; %s search for %q (user %d) in %v\n",
			how, buildTime.Round(time.Millisecond), m, query, user, searchTime.Round(time.Microsecond))
	}
	if len(res) == 0 {
		fmt.Println("no topics match the query")
		return nil
	}
	for i, r := range res {
		fmt.Printf("%2d. %-40s influence %.6f\n", i+1, r.Topic.Label, r.Score)
	}
	if tr := ans.Trace; tr != nil {
		pruned, consumed, total := 0, 0, 0
		for _, tt := range tr.Topics {
			if tt.Pruned {
				pruned++
			}
			consumed += tt.ConsumedReps
			total += tt.TotalReps
		}
		fmt.Printf("trace: |Γ(user)| = %d, expansion depth %d (frontiers %v)\n",
			tr.GammaSize, tr.Depth, tr.FrontierSizes)
		fmt.Printf("trace: pruned %d/%d topics; consumed %d/%d representatives\n",
			pruned, len(tr.Topics), consumed, total)
	}
	return nil
}
