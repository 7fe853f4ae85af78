package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/topics"
)

// testIdx is the no-persistence index config most tests use.
func testIdx() indexConfig {
	return indexConfig{Options: core.Options{Theta: 0.01, WalkL: 4, WalkR: 8, Seed: 1}}
}

func TestRunWithExplicitConfig(t *testing.T) {
	dir := t.TempDir()
	gp := filepath.Join(dir, "g.tsv")
	tp := filepath.Join(dir, "t.tsv")
	gcfg := dataset.GraphConfig{Nodes: 200, MinOutDegree: 2, MaxOutDegree: 5, Seed: 1}
	tcfg := dataset.TopicConfig{Tags: 3, TopicsPerTag: 2, MeanTopicNodes: 8, Seed: 2}
	if err := run("", 1, gcfg, tcfg, gp, tp, true, testIdx()); err != nil {
		t.Fatal(err)
	}
	gf, err := os.Open(gp)
	if err != nil {
		t.Fatal(err)
	}
	defer gf.Close()
	g, err := graph.Read(gf)
	if err != nil {
		t.Fatalf("generated graph unparsable: %v", err)
	}
	if g.NumNodes() != 200 {
		t.Errorf("nodes = %d, want 200", g.NumNodes())
	}
	tf, err := os.Open(tp)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	sp, err := topics.Read(tf)
	if err != nil {
		t.Fatalf("generated topics unparsable: %v", err)
	}
	if sp.NumTopics() != 6 {
		t.Errorf("topics = %d, want 6", sp.NumTopics())
	}
}

func TestRunWithPreset(t *testing.T) {
	dir := t.TempDir()
	gp := filepath.Join(dir, "g.tsv")
	tp := filepath.Join(dir, "t.tsv")
	if err := run("data_2k", 0.1, dataset.GraphConfig{}, dataset.TopicConfig{}, gp, tp, false, testIdx()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(gp); err != nil {
		t.Errorf("graph file missing: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	gp := filepath.Join(dir, "g.tsv")
	tp := filepath.Join(dir, "t.tsv")
	if err := run("no-such-preset", 1, dataset.GraphConfig{}, dataset.TopicConfig{}, gp, tp, false, testIdx()); err == nil {
		t.Error("unknown preset accepted")
	}
	bad := dataset.GraphConfig{Nodes: 0}
	if err := run("", 1, bad, dataset.TopicConfig{Tags: 1, TopicsPerTag: 1}, gp, tp, false, testIdx()); err == nil {
		t.Error("invalid graph config accepted")
	}
	good := dataset.GraphConfig{Nodes: 50, MinOutDegree: 1, MaxOutDegree: 3, Seed: 1}
	if err := run("", 1, good, dataset.TopicConfig{Tags: 1, TopicsPerTag: 1, MeanTopicNodes: 4}, filepath.Join(dir, "nope", "g.tsv"), tp, false, testIdx()); err == nil {
		t.Error("unwritable graph path accepted")
	}
	badWarm := testIdx()
	badWarm.warm = "lrw,zzz"
	if err := run("", 1, good, dataset.TopicConfig{Tags: 1, TopicsPerTag: 1, MeanTopicNodes: 4}, gp, tp, false, badWarm); err == nil {
		t.Error("invalid warm method accepted")
	}
}

// TestRunRefusesOutOfRangeEngineFlags: -theta outside (0, 1) and a -L or
// -R below one are errors naming the flag, not a silent fallback to the
// defaults.
func TestRunRefusesOutOfRangeEngineFlags(t *testing.T) {
	dir := t.TempDir()
	good := dataset.GraphConfig{Nodes: 50, MinOutDegree: 1, MaxOutDegree: 3, Seed: 1}
	tcfg := dataset.TopicConfig{Tags: 1, TopicsPerTag: 1, MeanTopicNodes: 4}
	for _, args := range [][]string{{"-theta", "1.5"}, {"-theta", "0"}, {"-L", "-1"}, {"-R", "0"}} {
		icfg := indexConfig{dir: filepath.Join(dir, "idx")}
		fs := flag.NewFlagSet("datagen", flag.ContinueOnError)
		icfg.RegisterFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		err := run("", 1, good, tcfg, filepath.Join(dir, "g.tsv"), filepath.Join(dir, "t.tsv"), false, icfg)
		if err == nil || !strings.Contains(err.Error(), args[0]+":") {
			t.Errorf("run with %v = %v, want an error naming %s", args, err, args[0])
		}
	}
}

// TestRunBuildsArtifacts exercises the offline-builder role: one datagen
// invocation writes the dataset AND a warmed artifact directory that the
// serving engines can cold-start from.
func TestRunBuildsArtifacts(t *testing.T) {
	dir := t.TempDir()
	gp := filepath.Join(dir, "g.tsv")
	tp := filepath.Join(dir, "t.tsv")
	icfg := testIdx()
	icfg.dir = filepath.Join(dir, "idx")
	icfg.warm = "lrw,rcl"
	gcfg := dataset.GraphConfig{Nodes: 200, MinOutDegree: 2, MaxOutDegree: 5, Seed: 1}
	tcfg := dataset.TopicConfig{Tags: 3, TopicsPerTag: 2, MeanTopicNodes: 8, Seed: 2}
	if err := run("", 1, gcfg, tcfg, gp, tp, false, icfg); err != nil {
		t.Fatal(err)
	}
	if !core.ArtifactsExist(icfg.dir) {
		t.Fatal("artifact directory not populated")
	}
	for _, name := range []string{"walks.pit", "prop.pit", "summaries_lrw.pit", "summaries_rcl.pit"} {
		if _, err := os.Stat(filepath.Join(icfg.dir, name)); err != nil {
			t.Errorf("artifact %s missing: %v", name, err)
		}
	}

}
