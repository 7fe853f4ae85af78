package eval

import (
	"fmt"
	"strings"
	"time"
)

// Markdown renders the table as a GitHub-flavored Markdown table.
func (t Table) Markdown() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "### %s — %s\n\n", t.ID, t.Caption)
	sb.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	sb.WriteString("|" + strings.Repeat("---|", len(t.Header)) + "\n")
	for _, row := range t.Rows {
		sb.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	return sb.String()
}

// Result is one experiment's table and the wall time its run took.
type Result struct {
	Table Table
	Took  time.Duration
}

// Report runs a set of experiments and renders them with RenderReport.
// IDs defaults to the full registry when empty. Errors abort the report
// (partial results are not returned).
func (r *Runner) Report(ids []string) (string, error) {
	if len(ids) == 0 {
		for _, e := range Experiments() {
			ids = append(ids, e.ID)
		}
	}
	results := make([]Result, 0, len(ids))
	for _, id := range ids {
		start := time.Now()
		table, err := r.Run(id)
		if err != nil {
			return "", fmt.Errorf("report: %s: %w", id, err)
		}
		results = append(results, Result{table, time.Since(start)})
	}
	return RenderReport(r.Config(), results), nil
}

// RenderReport renders results, already run at cfg, as one Markdown
// document with a configuration header. It runs nothing.
func RenderReport(cfg Config, results []Result) string {
	var sb strings.Builder
	sb.WriteString("# PIT-Search experiment report\n\n")
	fmt.Fprintf(&sb, "Configuration: scale %.2f, %d queries × %d users, L=%d, R=%d, θ=%g, RepScale=%.2f, seed %d.\n\n",
		cfg.Scale, cfg.Queries, cfg.Users, cfg.WalkL, cfg.WalkR, cfg.Theta, cfg.RepScale, cfg.Seed)
	for _, res := range results {
		sb.WriteString(res.Table.Markdown())
		fmt.Fprintf(&sb, "\n_regenerated in %v_\n\n", res.Took.Round(time.Millisecond))
	}
	return sb.String()
}
