package main

import (
	"flag"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/eval"
)

func tinyConfig() eval.Config {
	cfg := eval.TestConfig()
	cfg.Scale = 0.05
	cfg.Queries = 1
	cfg.Users = 1
	return cfg
}

func TestRunSingleExperiment(t *testing.T) {
	if err := run("fig5", tinyConfig(), ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run("fig99", tinyConfig(), ""); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunMarkdownReport(t *testing.T) {
	path := t.TempDir() + "/report.md"
	if err := run("fig5", tinyConfig(), path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "### fig5") {
		t.Errorf("report missing table header:\n%s", data)
	}
}

// TestEmptyCommandLineIsDefaultConfig: pitbench with no flags runs the
// harness at eval.DefaultConfig, the configuration EXPERIMENTS.md states.
func TestEmptyCommandLineIsDefaultConfig(t *testing.T) {
	var o options
	fs := flag.NewFlagSet("pitbench", flag.ContinueOnError)
	registerFlags(fs, &o)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if want := eval.DefaultConfig(); !reflect.DeepEqual(o.cfg, want) {
		t.Errorf("empty command line parses to %+v, want eval.DefaultConfig() %+v", o.cfg, want)
	}
}

// TestRunRefusesOutOfRangeEngineFlags: -theta outside (0, 1) and a -L or
// -R below one are errors naming the flag, not a silent fallback to the
// defaults.
func TestRunRefusesOutOfRangeEngineFlags(t *testing.T) {
	for _, args := range [][]string{{"-theta", "1.5"}, {"-theta", "0"}, {"-L", "-1"}, {"-R", "0"}} {
		var o options
		fs := flag.NewFlagSet("pitbench", flag.ContinueOnError)
		registerFlags(fs, &o)
		if err := fs.Parse(append([]string{"-exp", "fig5", "-scale", "0.05"}, args...)); err != nil {
			t.Fatal(err)
		}
		if err := run(o.exp, o.cfg, ""); err == nil || !strings.Contains(err.Error(), args[0]+":") {
			t.Errorf("run with %v = %v, want an error naming %s", args, err, args[0])
		}
	}
}
