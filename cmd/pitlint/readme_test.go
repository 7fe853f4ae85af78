package main

import (
	"bytes"
	"os"
	"regexp"
	"slices"
	"testing"
)

// TestREADMEAnalyzerTable keeps the table in README's "Static analysis"
// section equal to the registered suite: a row per analyzer and no row
// for an analyzer that is gone.
func TestREADMEAnalyzerTable(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := bytes.Cut(readme, []byte("\n## Static analysis"))
	if !ok {
		t.Fatal(`README has no "## Static analysis" section`)
	}
	section, _, _ = bytes.Cut(section, []byte("\n## "))
	var got []string
	for _, m := range regexp.MustCompile("(?m)^\\| `([a-z]+)` +\\|").FindAllSubmatch(section, -1) {
		got = append(got, string(m[1]))
	}
	var want []string
	for _, a := range analyzers {
		want = append(want, a.Name)
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("README analyzer table lists\n  %v\nbut pitlint registers\n  %v", got, want)
	}
}
