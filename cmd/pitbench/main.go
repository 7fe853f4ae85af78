// Command pitbench regenerates the paper's evaluation figures (Figures
// 5–16, §6) as text tables at laptop scale. Every experiment's ID, inputs
// and expected shape are catalogued in DESIGN.md §5; measured-vs-paper
// values are recorded in EXPERIMENTS.md.
//
// Usage:
//
//	pitbench                 # run every experiment
//	pitbench -exp fig10      # one experiment
//	pitbench -scale 2 -queries 5 -users 5   # bigger workload
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/eval"
)

// options carries every flag, so the command line is parseable from
// tests.
type options struct {
	exp, mdOut string
	cfg        eval.Config
}

// registerFlags binds every pitbench flag to a field of o. An absent
// flag leaves o.cfg at eval.DefaultConfig.
func registerFlags(fs *flag.FlagSet, o *options) {
	o.cfg = eval.DefaultConfig()
	fs.StringVar(&o.exp, "exp", "all", `experiment to run ("fig4".."fig16", "figS1".."figS3", or "all")`)
	fs.Float64Var(&o.cfg.Scale, "scale", o.cfg.Scale, "dataset scale factor (1 = laptop-scale defaults)")
	fs.IntVar(&o.cfg.Queries, "queries", o.cfg.Queries, "tag queries per experiment")
	fs.IntVar(&o.cfg.Users, "users", o.cfg.Users, "query users per query")
	o.cfg.RegisterFlags(fs)
	fs.StringVar(&o.mdOut, "markdown", "", "also write the results as a Markdown report to this file")
}

func main() {
	var o options
	registerFlags(flag.CommandLine, &o)
	flag.Parse()
	if err := run(o.exp, o.cfg, o.mdOut); err != nil {
		fmt.Fprintln(os.Stderr, "pitbench:", err)
		os.Exit(1)
	}
}

func run(exp string, cfg eval.Config, mdOut string) error {
	if err := cfg.CheckFlags(); err != nil {
		return err
	}
	runner, err := eval.NewRunner(cfg)
	if err != nil {
		return err
	}
	var ids []string
	if exp == "all" {
		for _, e := range eval.Experiments() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = []string{exp}
	}
	results := make([]eval.Result, 0, len(ids))
	for _, id := range ids {
		start := time.Now()
		table, err := runner.Run(id)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		res := eval.Result{Table: table, Took: time.Since(start)}
		results = append(results, res)
		fmt.Println(table.Format())
		fmt.Printf("(%s regenerated in %v)\n\n", id, res.Took.Round(time.Millisecond))
	}
	if mdOut != "" {
		// Rendered from the tables and times of the pass above: nothing
		// runs twice.
		report := eval.RenderReport(runner.Config(), results)
		if err := os.WriteFile(mdOut, []byte(report), 0o644); err != nil {
			return fmt.Errorf("write markdown report: %w", err)
		}
		fmt.Printf("markdown report written to %s\n", mdOut)
	}
	return nil
}
