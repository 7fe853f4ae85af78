package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

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

func TestRunWithPreset(t *testing.T) {
	if err := run("data_2k", 0.1, "", "", "lrw", "tag000", 5, 3, 0.01, 4, 8, 1, true, 0, false, false, ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithFiles(t *testing.T) {
	gp, tp := writeDataset(t)
	for _, method := range []string{"lrw", "rcl"} {
		if err := run("", 1, gp, tp, method, "tag001", 3, 2, 0.01, 4, 8, 1, true, 0.5, true, true, ""); err != nil {
			t.Fatalf("%s: %v", method, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	gp, tp := writeDataset(t)
	cases := []struct {
		name string
		call func() error
	}{
		{"bad method", func() error {
			return run("", 1, gp, tp, "xxx", "tag000", 1, 1, 0.01, 4, 8, 1, true, 0, false, false, "")
		}},
		{"user out of range", func() error {
			return run("", 1, gp, tp, "lrw", "tag000", -1, 1, 0.01, 4, 8, 1, true, 0, false, false, "")
		}},
		{"graph without topics", func() error {
			return run("", 1, gp, "", "lrw", "tag000", 1, 1, 0.01, 4, 8, 1, true, 0, false, false, "")
		}},
		{"missing graph file", func() error {
			return run("", 1, gp+".nope", tp, "lrw", "tag000", 1, 1, 0.01, 4, 8, 1, true, 0, false, false, "")
		}},
		{"unknown preset", func() error {
			return run("zzz", 1, "", "", "lrw", "tag000", 1, 1, 0.01, 4, 8, 1, true, 0, false, false, "")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.call(); err == nil {
				t.Error("expected error")
			}
		})
	}
}

// TestRunIndexDirRoundTrip drives the persistence path end to end: the
// first run builds, warms and saves artifacts; the second cold-starts
// from them. A directory left behind by the retired gob v1 format is
// refused, not rebuilt over.
func TestRunIndexDirRoundTrip(t *testing.T) {
	gp, tp := writeDataset(t)
	t.Run("v2", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "idx")
		if err := run("", 1, gp, tp, "lrw", "tag001", 3, 2, 0.01, 4, 8, 1, true, 0, false, true, dir); err != nil {
			t.Fatalf("save run: %v", err)
		}
		if _, err := os.Stat(filepath.Join(dir, "walks.pit")); err != nil {
			t.Fatalf("walks artifact missing: %v", err)
		}
		if err := run("", 1, gp, tp, "lrw", "tag001", 3, 2, 0.01, 4, 8, 1, true, 0, false, false, dir); err != nil {
			t.Fatalf("load run: %v", err)
		}
	})
	t.Run("legacy v1 refused", func(t *testing.T) {
		dir := t.TempDir()
		for _, name := range []string{"walks.pit", "prop.pit"} {
			if err := os.WriteFile(filepath.Join(dir, name), []byte("(\x7f\x03\x01\x01\benvelope\x01\xff\x80 pitsearch-index-v1"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		err := run("", 1, gp, tp, "lrw", "tag001", 3, 2, 0.01, 4, 8, 1, true, 0, false, false, dir)
		if err == nil || !strings.Contains(err.Error(), "storage: not a pitsearch-index-v2") || !strings.Contains(err.Error(), "datagen -index-dir") {
			t.Fatalf("legacy artifact directory: %v", err)
		}
	})
}

func TestRunUnknownQueryIsGraceful(t *testing.T) {
	gp, tp := writeDataset(t)
	if err := run("", 1, gp, tp, "lrw", "not-a-tag", 1, 3, 0.01, 4, 8, 1, true, 0, true, false, ""); err != nil {
		t.Fatalf("unknown query should not error: %v", err)
	}
}
