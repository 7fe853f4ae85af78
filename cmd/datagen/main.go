// Command datagen generates synthetic PIT-Search datasets — a social graph
// (TSV edge list) and a topic space (TSV records) — either from one of the
// paper-mirroring presets (data_2k, data_350k, data_1.2m, data_3m; see
// §6.1 and DESIGN.md §3) or from explicit size parameters.
//
// With -index-dir it additionally acts as the offline index builder:
// after writing the dataset it builds the random-walk and propagation
// indexes (and, with -warm, every topic summary) and persists them as a
// versioned artifact directory that pitsearch and pitserve, at any
// -shards, cold-start from.
//
// Usage:
//
//	datagen -preset data_2k -graph graph.tsv -topics topics.tsv
//	datagen -nodes 5000 -min-deg 2 -max-deg 12 -tags 20 -graph g.tsv -topics t.tsv
//	datagen -preset data_350k -index-dir idx/ -warm lrw
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/topics"
)

func main() {
	var (
		preset    = flag.String("preset", "", "dataset preset: data_2k, data_350k, data_1.2m, data_3m (overrides size flags)")
		scale     = flag.Float64("scale", 1, "scale factor applied to the preset's node counts")
		nodes     = flag.Int("nodes", 2000, "number of social users")
		minDeg    = flag.Int("min-deg", 2, "minimum out-degree")
		maxDeg    = flag.Int("max-deg", 16, "maximum out-degree")
		bias      = flag.Float64("bias", 0.7, "preferential-attachment bias in [0,1]")
		tags      = flag.Int("tags", 12, "tag vocabulary size")
		perTag    = flag.Int("topics-per-tag", 10, "topics per tag")
		topicSize = flag.Int("topic-size", 30, "mean topic node count")
		locality  = flag.Float64("locality", 0.7, "fraction of topic nodes drawn from one community")
		graphOut  = flag.String("graph", "graph.tsv", "output path for the graph")
		topicsOut = flag.String("topics", "topics.tsv", "output path for the topic space")
		stats     = flag.Bool("stats", false, "print structural statistics of the generated graph")
		icfg      indexConfig
	)
	flag.StringVar(&icfg.dir, "index-dir", "", "also build the offline indexes and save them as an artifact directory")
	flag.StringVar(&icfg.warm, "warm", "", "comma-separated summary methods to materialize into the artifacts: lrw, rcl (with -index-dir)")
	// -seed seeds the dataset too; -L, -R and -theta apply with -index-dir.
	icfg.RegisterFlags(flag.CommandLine)
	flag.Parse()

	if err := run(*preset, *scale, dataset.GraphConfig{
		Nodes: *nodes, MinOutDegree: *minDeg, MaxOutDegree: *maxDeg,
		PreferentialBias: *bias, Seed: icfg.Seed,
	}, dataset.TopicConfig{
		Tags: *tags, TopicsPerTag: *perTag, MeanTopicNodes: *topicSize,
		Locality: *locality, Seed: icfg.Seed + 1,
	}, *graphOut, *topicsOut, *stats, icfg); err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
}

// indexConfig carries the optional offline-index-build step's parameters.
type indexConfig struct {
	dir  string
	warm string
	// The engine's -L, -R, -theta and -seed, bound by core.
	core.Options
}

// warmMethods parses the -warm list into engine methods.
func (c indexConfig) warmMethods() ([]core.Method, error) {
	if c.warm == "" {
		return nil, nil
	}
	var ms []core.Method
	for _, name := range strings.Split(c.warm, ",") {
		m, err := core.ParseMethod(strings.TrimSpace(name))
		if err != nil {
			return nil, fmt.Errorf("-warm: %w", err)
		}
		ms = append(ms, m)
	}
	return ms, nil
}

func run(preset string, scale float64, gcfg dataset.GraphConfig, tcfg dataset.TopicConfig, graphOut, topicsOut string, printStats bool, icfg indexConfig) error {
	if err := icfg.CheckFlags(); err != nil {
		return err
	}
	warmMs, err := icfg.warmMethods()
	if err != nil {
		return err
	}
	var (
		g  *graph.Graph
		sp *topics.Space
	)
	if preset != "" {
		p, perr := dataset.PresetByName(preset)
		if perr != nil {
			return perr
		}
		built, berr := p.Scale(scale).Build()
		if berr != nil {
			return berr
		}
		g, sp = built.Graph, built.Space
	} else {
		if g, err = dataset.GenerateGraph(gcfg); err != nil {
			return err
		}
		if sp, err = dataset.GenerateTopics(g, tcfg); err != nil {
			return err
		}
	}

	gf, err := os.Create(graphOut)
	if err != nil {
		return err
	}
	defer gf.Close()
	if err := graph.Write(gf, g); err != nil {
		return err
	}
	tf, err := os.Create(topicsOut)
	if err != nil {
		return err
	}
	defer tf.Close()
	if err := topics.Write(tf, sp); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d nodes, %d edges) and %s (%d topics)\n",
		graphOut, g.NumNodes(), g.NumEdges(), topicsOut, sp.NumTopics())
	if printStats {
		fmt.Println(graph.ComputeStats(g))
		fmt.Println("out-degree histogram (power-of-two buckets):", graph.DegreeHistogram(g))
	}
	if icfg.dir != "" {
		if err := buildArtifacts(g, sp, icfg, warmMs); err != nil {
			return err
		}
	}
	return nil
}

// buildArtifacts runs the offline pipeline — walk index, propagation
// index, optional full-corpus summary materialization — and persists the
// result so serving processes cold-start instead of rebuilding.
func buildArtifacts(g *graph.Graph, sp *topics.Space, icfg indexConfig, warmMs []core.Method) error {
	eng, err := core.New(g, sp, icfg.Options)
	if err != nil {
		return err
	}
	defer eng.Close()
	start := time.Now()
	if err := eng.BuildIndexes(context.Background()); err != nil {
		return err
	}
	log.Printf("indexes built in %v (L=%d R=%d θ=%g)",
		time.Since(start).Round(time.Millisecond), icfg.WalkL, icfg.WalkR, icfg.Theta)
	for _, m := range warmMs {
		start = time.Now()
		if err := eng.WarmSummaries(context.Background(), m, core.WarmOptions{}); err != nil {
			return err
		}
		log.Printf("warmed %d %s topic summaries in %v",
			sp.NumTopics(), m, time.Since(start).Round(time.Millisecond))
	}
	start = time.Now()
	if err := core.WriteArtifacts(icfg.dir, eng); err != nil {
		return fmt.Errorf("save artifacts to %s: %w", icfg.dir, err)
	}
	fmt.Printf("saved artifacts to %s in %v\n", icfg.dir, time.Since(start).Round(time.Millisecond))
	return nil
}
