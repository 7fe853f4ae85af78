// Package obs is the repo's dependency-free observability layer:
// atomic counters, gauges and fixed-bucket histograms collected in a
// named registry and exposed in the Prometheus text exposition format
// (version 0.0.4). The module builds offline with zero third-party
// dependencies, so the usual client library is out; this package
// implements the small subset the serving path needs.
//
// Design constraints, in order:
//
//  1. The observe paths are lock-free. Counter.Add, Gauge.Set and
//     Histogram.Observe are a handful of atomic operations and never
//     allocate, so they can sit on the query path without showing up
//     in its benchmarks.
//  2. Exposition is deterministic: families sort by name, vec children
//     by label values, so two scrapes of an idle process are
//     byte-identical and tests can assert on output.
//  3. Registration is idempotent: asking a registry twice for the same
//     (name, type, labels) returns the same handle, so independently
//     wired components can share one registry without coordination.
//     A name collision with a *different* shape panics — that is a
//     programming error, not a runtime condition.
//
// Labeled variants (CounterVec, HistogramVec) resolve their children
// through an RWMutex-guarded map — the lookup is on the HTTP middleware
// path where a few nanoseconds of read-lock are irrelevant; the returned
// child handles themselves are lock-free and can be cached by hot code.
package obs

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64 metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an int64 metric that can go up and down (e.g. in-flight
// requests).
type Gauge struct {
	v atomic.Int64
}

// Inc adds 1.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket cumulative histogram. Buckets are upper
// bounds (le semantics); a +Inf bucket is implicit. Observe is lock-free:
// one atomic add on the bucket, one on the count, and a CAS loop on the
// float sum.
type Histogram struct {
	bounds []float64       // strictly increasing upper bounds
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	count  atomic.Uint64
	sum    atomicFloat
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	// First bucket whose upper bound is >= v — binary search, no alloc.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	h.sum.add(v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.load() }

// atomicFloat is a float64 updated through CAS on its bit pattern.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, new) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// DurationBuckets is the default latency bucket layout (seconds):
// sub-millisecond search latencies through multi-second degraded
// fallbacks. Chosen so the interesting operating range of the online
// path — warm cache hits around tens of microseconds, cold
// summarizations around tens to hundreds of milliseconds, the
// 2 s degrade budget and the 10 s request deadline — each land in
// distinct buckets instead of saturating the first or last one.
var DurationBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// DepthBuckets suits small non-negative integer distributions such as
// the search expansion depth (MaxExpandDepth defaults to 3).
var DepthBuckets = []float64{0, 1, 2, 3, 4, 6, 8}

// LagBuckets suits staleness and propagation-lag distributions
// (seconds): how far behind the freshest event a rebuilt index is.
// DurationBuckets tops out at the 10 s request deadline; lag is
// dominated by batching age plus rebuild time and degrades toward
// minutes when the pipeline falls behind, so the layout extends there.
var LagBuckets = []float64{
	0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 15, 30, 60, 120, 300,
}

// metric families ------------------------------------------------------

type familyKind int

const (
	kindCounter familyKind = iota
	kindGauge
	kindHistogram
)

func (k familyKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// family is one registered metric name with its help text, kind, label
// schema and handle(s).
type family struct {
	name   string
	help   string
	kind   familyKind
	labels []string // nil for scalar metrics
	bounds []float64

	// Exactly one of these is set, matching (kind, labels == nil).
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	cvec    *CounterVec
	gvec    *GaugeVec
	hvec    *HistogramVec
}

// Registry holds metric families and renders them. The zero value is
// not ready; use NewRegistry.
type Registry struct {
	mu   sync.RWMutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

// lookup returns the family for name after validating that the
// requested shape matches, or nil if the name is unregistered.
func (r *Registry) lookup(name string, kind familyKind, labels []string) *family {
	f, ok := r.fams[name]
	if !ok {
		return nil
	}
	if f.kind != kind || !equalStrings(f.labels, labels) {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s%v, was %s%v",
			name, kind, labels, f.kind, f.labels))
	}
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkName panics unless name matches the Prometheus metric-name
// grammar [a-zA-Z_:][a-zA-Z0-9_:]*.
func checkName(name string) {
	if name == "" {
		panic("obs: empty metric name")
	}
	for i, c := range name {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			panic(fmt.Sprintf("obs: invalid metric name %q", name))
		}
	}
}

// Counter returns the registered counter, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	checkName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.lookup(name, kindCounter, nil); f != nil {
		return f.counter
	}
	f := &family{name: name, help: help, kind: kindCounter, counter: &Counter{}}
	r.fams[name] = f
	return f.counter
}

// Gauge returns the registered gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	checkName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.lookup(name, kindGauge, nil); f != nil {
		return f.gauge
	}
	f := &family{name: name, help: help, kind: kindGauge, gauge: &Gauge{}}
	r.fams[name] = f
	return f.gauge
}

// Histogram returns the registered histogram, creating it on first use.
// buckets are strictly increasing upper bounds; +Inf is implicit.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	checkName(name)
	checkBuckets(buckets)
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.lookup(name, kindHistogram, nil); f != nil {
		return f.hist
	}
	f := &family{name: name, help: help, kind: kindHistogram,
		bounds: append([]float64(nil), buckets...), hist: newHistogram(buckets)}
	r.fams[name] = f
	return f.hist
}

func newHistogram(buckets []float64) *Histogram {
	return &Histogram{
		bounds: append([]float64(nil), buckets...),
		counts: make([]atomic.Uint64, len(buckets)+1),
	}
}

func checkBuckets(buckets []float64) {
	if len(buckets) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(buckets); i++ {
		if !(buckets[i] > buckets[i-1]) {
			panic(fmt.Sprintf("obs: histogram buckets not strictly increasing at %d: %v", i, buckets))
		}
	}
}

// CounterVec is a counter family partitioned by label values.
type CounterVec struct {
	labels []string
	mu     sync.RWMutex
	m      map[string]*Counter
}

// CounterVec returns the registered labeled counter family, creating it
// on first use.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	checkName(name)
	checkLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.lookup(name, kindCounter, labels); f != nil {
		return f.cvec
	}
	v := &CounterVec{labels: append([]string(nil), labels...), m: map[string]*Counter{}}
	r.fams[name] = &family{name: name, help: help, kind: kindCounter, labels: v.labels, cvec: v}
	return v
}

// With returns the child counter for the label values (in declaration
// order), creating it on first use. The returned handle is lock-free
// and may be cached.
func (v *CounterVec) With(values ...string) *Counter {
	key := childKey(v.labels, values)
	v.mu.RLock()
	c, ok := v.m[key]
	v.mu.RUnlock()
	if ok {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.m[key]; ok {
		return c
	}
	c = &Counter{}
	v.m[key] = c
	return c
}

// GaugeVec is a gauge family partitioned by label values (e.g. a level
// per summarization method).
type GaugeVec struct {
	labels []string
	mu     sync.RWMutex
	m      map[string]*Gauge
}

// GaugeVec returns the registered labeled gauge family, creating it on
// first use.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	checkName(name)
	checkLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.lookup(name, kindGauge, labels); f != nil {
		return f.gvec
	}
	v := &GaugeVec{labels: append([]string(nil), labels...), m: map[string]*Gauge{}}
	r.fams[name] = &family{name: name, help: help, kind: kindGauge, labels: v.labels, gvec: v}
	return v
}

// With returns the child gauge for the label values (in declaration
// order), creating it on first use. The returned handle is lock-free
// and may be cached.
func (v *GaugeVec) With(values ...string) *Gauge {
	key := childKey(v.labels, values)
	v.mu.RLock()
	g, ok := v.m[key]
	v.mu.RUnlock()
	if ok {
		return g
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if g, ok := v.m[key]; ok {
		return g
	}
	g = &Gauge{}
	v.m[key] = g
	return g
}

// HistogramVec is a histogram family partitioned by label values. All
// children share the family's bucket layout.
type HistogramVec struct {
	labels []string
	bounds []float64
	mu     sync.RWMutex
	m      map[string]*Histogram
}

// HistogramVec returns the registered labeled histogram family,
// creating it on first use.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	checkName(name)
	checkBuckets(buckets)
	checkLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.lookup(name, kindHistogram, labels); f != nil {
		return f.hvec
	}
	v := &HistogramVec{
		labels: append([]string(nil), labels...),
		bounds: append([]float64(nil), buckets...),
		m:      map[string]*Histogram{},
	}
	r.fams[name] = &family{name: name, help: help, kind: kindHistogram,
		labels: v.labels, bounds: v.bounds, hvec: v}
	return v
}

// With returns the child histogram for the label values, creating it on
// first use. The returned handle is lock-free and may be cached.
func (v *HistogramVec) With(values ...string) *Histogram {
	key := childKey(v.labels, values)
	v.mu.RLock()
	h, ok := v.m[key]
	v.mu.RUnlock()
	if ok {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h, ok := v.m[key]; ok {
		return h
	}
	h = newHistogram(v.bounds)
	v.m[key] = h
	return h
}

func checkLabels(labels []string) {
	if len(labels) == 0 {
		panic("obs: vec metric needs at least one label")
	}
	for _, l := range labels {
		checkName(l) // label-name grammar is a subset of metric names
		if strings.Contains(l, ":") {
			panic(fmt.Sprintf("obs: invalid label name %q", l))
		}
	}
}

// childKey joins label values with a separator that cannot appear in
// them unescaped ambiguously; \xff never appears in valid UTF-8 label
// values produced by this codebase (routes, status codes, method names).
func childKey(labels, values []string) string {
	if len(values) != len(labels) {
		panic(fmt.Sprintf("obs: got %d label values for labels %v", len(values), labels))
	}
	return strings.Join(values, "\xff")
}
