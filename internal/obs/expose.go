package obs

// Prometheus text exposition (format version 0.0.4). The writer holds
// the registry read lock (and each vec's read lock while snapshotting
// its children), so a scrape never blocks an observe — observes are
// atomic operations on already-resolved handles. Output is
// deterministic: families sort by name, children by label values.
//
// Consistency is per-sample, not per-scrape: a histogram scraped while
// observes are in flight may show a _sum slightly ahead of its buckets.
// That is the standard trade for lock-free observes and is what every
// scraper already tolerates.

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered family to w in the text
// exposition format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	r.mu.RLock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		if err := f.write(bw); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Handler returns an http.Handler serving the exposition — mount it at
// /metrics on the ops listener.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := r.WritePrometheus(w); err != nil {
			// Headers are gone; nothing useful left to do but drop it.
			return
		}
	})
}

func (f *family) write(w *bufio.Writer) error {
	if f.help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
	switch {
	case f.counter != nil:
		fmt.Fprintf(w, "%s %d\n", f.name, f.counter.Value())
	case f.gauge != nil:
		fmt.Fprintf(w, "%s %d\n", f.name, f.gauge.Value())
	case f.hist != nil:
		writeHistogram(w, f.name, "", f.hist)
	case f.cvec != nil:
		for _, ch := range f.cvec.children() {
			fmt.Fprintf(w, "%s{%s} %d\n", f.name, ch.labels, ch.c.Value())
		}
	case f.hvec != nil:
		for _, ch := range f.hvec.children() {
			writeHistogram(w, f.name, ch.labels, ch.h)
		}
	}
	return nil
}

// writeHistogram renders the cumulative buckets, sum and count. labels,
// when non-empty, is a pre-rendered "k=\"v\",..." pair list the le label
// is appended to.
func writeHistogram(w *bufio.Writer, name, labels string, h *Histogram) {
	cum := uint64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, labelPrefix(labels), formatFloat(bound), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, labelPrefix(labels), cum)
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %s\n", name, formatFloat(h.Sum()))
		fmt.Fprintf(w, "%s_count %d\n", name, h.Count())
	} else {
		fmt.Fprintf(w, "%s_sum{%s} %s\n", name, labels, formatFloat(h.Sum()))
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, h.Count())
	}
}

func labelPrefix(labels string) string {
	if labels == "" {
		return ""
	}
	return labels + ","
}

// child is one snapshot row of a vec: rendered label pairs + handle.
type counterChild struct {
	labels string
	c      *Counter
}

func (v *CounterVec) children() []counterChild {
	v.mu.RLock()
	out := make([]counterChild, 0, len(v.m))
	for key, c := range v.m {
		out = append(out, counterChild{labels: renderLabels(v.labels, key), c: c})
	}
	v.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].labels < out[j].labels })
	return out
}

type histChild struct {
	labels string
	h      *Histogram
}

func (v *HistogramVec) children() []histChild {
	v.mu.RLock()
	out := make([]histChild, 0, len(v.m))
	for key, h := range v.m {
		out = append(out, histChild{labels: renderLabels(v.labels, key), h: h})
	}
	v.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].labels < out[j].labels })
	return out
}

// renderLabels turns a child key back into `k1="v1",k2="v2"`.
func renderLabels(labels []string, key string) string {
	values := strings.Split(key, "\xff")
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(values[i]))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func escapeHelp(h string) string {
	if !strings.ContainsAny(h, "\\\n") {
		return h
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(h)
}

// formatFloat renders a float the way Prometheus clients do: shortest
// representation that round-trips.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
