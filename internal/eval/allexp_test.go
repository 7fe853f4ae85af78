package eval

import (
	"strconv"
	"strings"
	"testing"
)

// TestAllExperimentsTinyScale smoke-runs every registered experiment at a
// minuscule scale: every figure function must produce a well-formed,
// non-empty table with numeric data cells. Shape assertions live in the
// dedicated TestFig*Shape tests and EXPERIMENTS.md.
func TestAllExperimentsTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness")
	}
	cfg := TestConfig()
	cfg.Scale = 0.05
	cfg.Queries = 1
	cfg.Users = 1
	cfg.WalkL = 3
	cfg.WalkR = 4
	r := mustRunner(t, cfg)
	for _, exp := range Experiments() {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			tab, err := r.Run(exp.ID)
			if err != nil {
				t.Fatalf("%s: %v", exp.ID, err)
			}
			if tab.ID != exp.ID {
				t.Errorf("table ID %q, want %q", tab.ID, exp.ID)
			}
			if len(tab.Header) < 2 || len(tab.Rows) == 0 {
				t.Fatalf("%s: degenerate table %+v", exp.ID, tab)
			}
			for _, row := range tab.Rows {
				if len(row) != len(tab.Header) {
					t.Errorf("%s: row %v has %d cells, header has %d", exp.ID, row, len(row), len(tab.Header))
				}
				for _, cell := range row[1:] {
					if cell == "" {
						t.Errorf("%s: empty cell in row %v", exp.ID, row)
					}
				}
			}
			// Markdown rendering must include every header column.
			md := tab.Markdown()
			for _, h := range tab.Header {
				if !strings.Contains(md, h) {
					t.Errorf("%s: markdown missing header %q", exp.ID, h)
				}
			}
		})
	}
}

// TestReportRendersAllRequested covers the Report path with two cheap
// experiments.
func TestReportRendersAllRequested(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness")
	}
	cfg := TestConfig()
	cfg.Scale = 0.05
	cfg.Queries = 1
	cfg.Users = 1
	r := mustRunner(t, cfg)
	report, err := r.Report([]string{"fig4", "fig5"})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# PIT-Search experiment report", "### fig4", "### fig5", "Configuration:"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if _, err := r.Report([]string{"nope" + strconv.Itoa(1)}); err == nil {
		t.Error("unknown id accepted by Report")
	}
}
