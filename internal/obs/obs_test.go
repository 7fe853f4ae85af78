package obs

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := r.Gauge("test_gauge", "a gauge")
	g.Inc()
	g.Inc()
	g.Dec()
	g.Add(10)
	if got := g.Value(); got != 11 {
		t.Errorf("gauge = %d, want 11", got)
	}
	g.Set(-3)
	if got := g.Value(); got != -3 {
		t.Errorf("gauge after Set = %d, want -3", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 0.05+0.1+0.5+2+100; got != want {
		t.Errorf("sum = %v, want %v", got, want)
	}
	// Exact bucket placement: le semantics — 0.1 lands in the 0.1 bucket.
	want := []uint64{2, 1, 1, 1}
	for i := range want {
		if got := h.counts[i].Load(); got != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, got, want[i])
		}
	}
}

func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("dup_total", "x")
	b := r.Counter("dup_total", "x")
	if a != b {
		t.Error("re-registering the same counter returned a different handle")
	}
	v1 := r.CounterVec("dupvec_total", "x", "route")
	v2 := r.CounterVec("dupvec_total", "x", "route")
	if v1 != v2 {
		t.Error("re-registering the same vec returned a different handle")
	}
	if v1.With("a") != v2.With("a") {
		t.Error("same labels resolved to different children")
	}
}

func TestShapeCollisionPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("shape_total", "x")
	defer func() {
		if recover() == nil {
			t.Error("registering a gauge under a counter's name did not panic")
		}
	}()
	r.Gauge("shape_total", "x")
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "1leading", "has space", "dash-ed"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q did not panic", bad)
				}
			}()
			r.Counter(bad, "x")
		}()
	}
}

// TestExposition pins the text format end to end: HELP/TYPE lines,
// sorted families, sorted vec children, cumulative histogram buckets
// with +Inf, _sum and _count.
func TestExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_total", "last by name").Add(7)
	v := r.CounterVec("aa_requests_total", "first by name", "route", "code")
	v.With("/search", "200").Add(3)
	v.With("/search", "429").Inc()
	v.With("/stats", "200").Inc()
	h := r.Histogram("mid_seconds", "a histogram", []float64{0.5, 2})
	h.Observe(0.25)
	h.Observe(1)
	h.Observe(5)
	r.Gauge("mid_gauge", "a gauge").Set(2)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP aa_requests_total first by name
# TYPE aa_requests_total counter
aa_requests_total{route="/search",code="200"} 3
aa_requests_total{route="/search",code="429"} 1
aa_requests_total{route="/stats",code="200"} 1
# HELP mid_gauge a gauge
# TYPE mid_gauge gauge
mid_gauge 2
# HELP mid_seconds a histogram
# TYPE mid_seconds histogram
mid_seconds_bucket{le="0.5"} 1
mid_seconds_bucket{le="2"} 2
mid_seconds_bucket{le="+Inf"} 3
mid_seconds_sum 6.25
mid_seconds_count 3
# HELP zz_total last by name
# TYPE zz_total counter
zz_total 7
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestExpositionDeterministic: two scrapes of an idle registry are
// byte-identical.
func TestExpositionDeterministic(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("h_seconds", "h", []float64{1}, "route")
	for _, route := range []string{"/c", "/a", "/b"} {
		v.With(route).Observe(0.5)
	}
	var a, b strings.Builder
	if err := r.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("scrapes differ:\n%s\nvs\n%s", a.String(), b.String())
	}
	if !strings.Contains(a.String(), `h_seconds_bucket{route="/a",le="1"} 1`) {
		t.Errorf("missing labeled bucket line:\n%s", a.String())
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "x").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "x_total 1") {
		t.Errorf("body missing sample:\n%s", rec.Body.String())
	}
}

// TestEmptyVecStillExposesFamily: a vec with no children yet still
// prints its HELP/TYPE header, so "is the metric wired?" checks (the
// pitserve -smoke gate) can rely on family names being present from
// process start.
func TestEmptyVecStillExposesFamily(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("later_total", "no children yet", "route")
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "# TYPE later_total counter") {
		t.Errorf("empty vec family not exposed:\n%s", b.String())
	}
}

// TestConcurrentObserves hammers every metric type from many goroutines
// while scraping concurrently — run with -race; totals must be exact.
func TestConcurrentObserves(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "c")
	g := r.Gauge("g", "g")
	h := r.Histogram("h_seconds", "h", []float64{0.5})
	v := r.CounterVec("v_total", "v", "worker")

	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			label := fmt.Sprintf("w%d", w%3)
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Inc()
				h.Observe(float64(i%2) + 0.25)
				v.With(label).Inc()
			}
		}(w)
	}
	// Concurrent scrapes must not block or corrupt the observers.
	var scrape sync.WaitGroup
	for s := 0; s < 4; s++ {
		scrape.Add(1)
		go func() {
			defer scrape.Done()
			var b strings.Builder
			_ = r.WritePrometheus(&b)
		}()
	}
	wg.Wait()
	scrape.Wait()

	total := uint64(workers * perWorker)
	if c.Value() != total {
		t.Errorf("counter = %d, want %d", c.Value(), total)
	}
	if g.Value() != int64(total) {
		t.Errorf("gauge = %d, want %d", g.Value(), total)
	}
	if h.Count() != total {
		t.Errorf("histogram count = %d, want %d", h.Count(), total)
	}
	var vecSum uint64
	for _, w := range []string{"w0", "w1", "w2"} {
		vecSum += v.With(w).Value()
	}
	if vecSum != total {
		t.Errorf("vec sum = %d, want %d", vecSum, total)
	}
}

// BenchmarkHistogramObserve pins the observe path as allocation-free —
// the property that lets instrumentation sit inside the 1-alloc search
// warm path.
func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench_seconds", "b", DurationBuckets)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%100) / 1000)
	}
}

// TestObservePathsAllocFree asserts (not just benchmarks) that counter,
// gauge and histogram updates allocate nothing.
func TestObservePathsAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("af_total", "x")
	g := r.Gauge("af_gauge", "x")
	h := r.Histogram("af_seconds", "x", DurationBuckets)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Inc()
		h.Observe(0.003)
	})
	if allocs != 0 {
		t.Errorf("observe paths allocate %v per op, want 0", allocs)
	}
}
