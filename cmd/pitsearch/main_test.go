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

func writeDataset(t *testing.T) (string, string) {
	t.Helper()
	g, err := dataset.GenerateGraph(dataset.GraphConfig{Nodes: 150, MinOutDegree: 2, MaxOutDegree: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := dataset.GenerateTopics(g, dataset.TopicConfig{Tags: 2, TopicsPerTag: 3, MeanTopicNodes: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	gp := filepath.Join(dir, "g.tsv")
	tp := filepath.Join(dir, "t.tsv")
	gf, _ := os.Create(gp)
	defer gf.Close()
	if err := graph.Write(gf, g); err != nil {
		t.Fatal(err)
	}
	tf, _ := os.Create(tp)
	defer tf.Close()
	if err := topics.Write(tf, sp); err != nil {
		t.Fatal(err)
	}
	return gp, tp
}

// testConfig is a quiet LRW-A search for tag000 by user 1 over the TSV
// dataset gp/tp, at a small walk index.
func testConfig(gp, tp string) config {
	return config{
		graphIn: gp, topicsIn: tp, scale: 1,
		method: "lrw", query: "tag000", user: 1, k: 1, quiet: true,
		Options: core.Options{Theta: 0.01, WalkL: 4, WalkR: 8, Seed: 1},
	}
}

func TestRunWithPreset(t *testing.T) {
	c := testConfig("", "")
	c.preset, c.scale, c.user, c.k = "data_2k", 0.1, 5, 3
	if err := run(c); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithFiles(t *testing.T) {
	gp, tp := writeDataset(t)
	for _, method := range []string{"lrw", "rcl"} {
		c := testConfig(gp, tp)
		c.method, c.query, c.user, c.k = method, "tag001", 3, 2
		c.diversity, c.trace, c.warm = 0.5, true, true
		if err := run(c); err != nil {
			t.Fatalf("%s: %v", method, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	gp, tp := writeDataset(t)
	cases := []struct {
		name string
		mut  func(*config)
	}{
		{"bad method", func(c *config) { c.method = "xxx" }},
		{"user out of range", func(c *config) { c.user = -1 }},
		{"graph without topics", func(c *config) { c.topicsIn = "" }},
		{"missing graph file", func(c *config) { c.graphIn = gp + ".nope" }},
		{"unknown preset", func(c *config) { c.preset, c.graphIn, c.topicsIn = "zzz", "", "" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := testConfig(gp, tp)
			tc.mut(&c)
			if err := run(c); err == nil {
				t.Error("expected error")
			}
		})
	}
}

// TestRunRefusesOutOfRangeEngineFlags: -theta outside (0, 1) and a -L or
// -R below one are errors naming the flag, not a silent fallback to the
// defaults.
func TestRunRefusesOutOfRangeEngineFlags(t *testing.T) {
	gp, tp := writeDataset(t)
	for _, args := range [][]string{{"-theta", "1.5"}, {"-theta", "0"}, {"-L", "-1"}, {"-R", "0"}} {
		var c config
		fs := flag.NewFlagSet("pitsearch", flag.ContinueOnError)
		registerFlags(fs, &c)
		if err := fs.Parse(append([]string{"-graph", gp, "-topics", tp, "-quiet"}, args...)); err != nil {
			t.Fatal(err)
		}
		if err := run(c); err == nil || !strings.Contains(err.Error(), args[0]+":") {
			t.Errorf("run with %v = %v, want an error naming %s", args, err, args[0])
		}
	}
}

// TestRunIndexDirRoundTrip drives the persistence path end to end: the
// first run builds, warms and saves artifacts; the second cold-starts
// from them. A directory left behind by the retired gob v1 format is
// refused, not rebuilt over.
func TestRunIndexDirRoundTrip(t *testing.T) {
	gp, tp := writeDataset(t)
	c := testConfig(gp, tp)
	c.query, c.user, c.k = "tag001", 3, 2
	t.Run("v2", func(t *testing.T) {
		c := c
		c.indexDir = filepath.Join(t.TempDir(), "idx")
		c.warm = true
		if err := run(c); err != nil {
			t.Fatalf("save run: %v", err)
		}
		if _, err := os.Stat(filepath.Join(c.indexDir, "walks.pit")); err != nil {
			t.Fatalf("walks artifact missing: %v", err)
		}
		c.warm = false
		if err := run(c); err != nil {
			t.Fatalf("load run: %v", err)
		}
	})
	t.Run("legacy v1 refused", func(t *testing.T) {
		c := c
		c.indexDir = t.TempDir()
		for _, name := range []string{"walks.pit", "prop.pit"} {
			if err := os.WriteFile(filepath.Join(c.indexDir, name), []byte("(\x7f\x03\x01\x01\benvelope\x01\xff\x80 pitsearch-index-v1"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		err := run(c)
		if err == nil || !strings.Contains(err.Error(), "storage: not a pitsearch-index-v2") || !strings.Contains(err.Error(), "datagen -index-dir") {
			t.Fatalf("legacy artifact directory: %v", err)
		}
	})
}

func TestRunUnknownQueryIsGraceful(t *testing.T) {
	gp, tp := writeDataset(t)
	c := testConfig(gp, tp)
	c.query, c.k, c.trace = "not-a-tag", 3, true
	if err := run(c); err != nil {
		t.Fatalf("unknown query should not error: %v", err)
	}
}
