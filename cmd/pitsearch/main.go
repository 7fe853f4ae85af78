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

// config carries every flag, so run is callable from tests.
type config struct {
	preset, graphIn, topicsIn string
	scale                     float64
	method, query             string
	user, k                   int
	quiet, trace, warm        bool
	diversity                 float64
	indexDir                  string
	// The engine's -L, -R, -theta and -seed, bound by core.
	core.Options
}

// registerFlags binds every pitsearch flag to a field of c.
func registerFlags(fs *flag.FlagSet, c *config) {
	fs.StringVar(&c.preset, "preset", "data_2k", "dataset preset (ignored when -graph/-topics are given)")
	fs.Float64Var(&c.scale, "scale", 1, "preset scale factor")
	fs.StringVar(&c.graphIn, "graph", "", "graph TSV file (with -topics, replaces the preset)")
	fs.StringVar(&c.topicsIn, "topics", "", "topic-space TSV file")
	fs.StringVar(&c.method, "method", "lrw", "summarization method: lrw or rcl")
	fs.StringVar(&c.query, "query", "tag000", "keyword query")
	fs.IntVar(&c.user, "user", 0, "query user node ID")
	fs.IntVar(&c.k, "k", 10, "number of topics to return")
	c.Options.RegisterFlags(fs)
	fs.BoolVar(&c.quiet, "quiet", false, "print only the result rows")
	fs.Float64Var(&c.diversity, "diversity", 0, "diversification strength λ ∈ [0,1] (0 = plain ranking)")
	fs.BoolVar(&c.trace, "trace", false, "print search diagnostics (pruning, expansion, rep consumption)")
	fs.BoolVar(&c.warm, "warm", false, "warm every topic summary before searching (batch/eval runs)")
	fs.StringVar(&c.indexDir, "index-dir", "", "artifact directory: load prebuilt indexes from it when populated, save freshly built ones into it otherwise")
}

func main() {
	var c config
	registerFlags(flag.CommandLine, &c)
	flag.Parse()
	if err := run(c); err != nil {
		fmt.Fprintln(os.Stderr, "pitsearch:", err)
		os.Exit(1)
	}
}

func run(c config) error {
	if err := c.CheckFlags(); err != nil {
		return err
	}
	m, err := core.ParseMethod(c.method)
	if err != nil {
		return err
	}
	g, sp, err := dataset.LoadPresetOrFiles(c.preset, c.scale, c.graphIn, c.topicsIn)
	if err != nil {
		return err
	}
	if c.user < 0 || c.user >= g.NumNodes() {
		return fmt.Errorf("user %d outside graph (0..%d)", c.user, g.NumNodes()-1)
	}

	eng, err := core.New(g, sp, c.Options)
	if err != nil {
		return err
	}
	// Cold-start from the artifact directory when it holds a snapshot;
	// otherwise build from scratch (and persist below, after the optional
	// warm, so saved artifacts include the materialized summaries).
	loaded := false
	start := time.Now()
	if c.indexDir != "" && core.ArtifactsExist(c.indexDir) {
		if err := eng.LoadArtifacts(c.indexDir); err != nil {
			return fmt.Errorf("load artifacts from %s: %w", c.indexDir, err)
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
	if c.warm {
		start = time.Now()
		if err := eng.WarmSummaries(context.Background(), m, core.WarmOptions{}); err != nil {
			return err
		}
		warmTime = time.Since(start)
	}

	if c.indexDir != "" && !loaded {
		if err := core.WriteArtifacts(c.indexDir, eng); err != nil {
			return fmt.Errorf("save artifacts to %s: %w", c.indexDir, err)
		}
	}

	start = time.Now()
	ans, err := eng.Run(context.Background(), core.Query{
		Method: m, Text: c.query, User: graph.NodeID(c.user), K: c.k, Lambda: c.diversity,
		Fidelity: core.FidelityFull, Trace: c.trace,
	})
	if err != nil {
		return err
	}
	res := ans.Results
	searchTime := time.Since(start)

	if !c.quiet {
		fmt.Printf("dataset: %d users, %d links, %d topics\n", g.NumNodes(), g.NumEdges(), sp.NumTopics())
		if c.warm {
			fmt.Printf("warmed %d topic summaries in %v\n", sp.NumTopics(), warmTime.Round(time.Millisecond))
		}
		how := "built"
		if loaded {
			how = "loaded from " + c.indexDir
		}
		fmt.Printf("indexes %s in %v; %s search for %q (user %d) in %v\n",
			how, buildTime.Round(time.Millisecond), m, c.query, c.user, searchTime.Round(time.Microsecond))
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
