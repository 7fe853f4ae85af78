// Stub of the repo's internal/obs registry: just the shapes
// metrichygiene resolves (named types in a package called "obs").
package obs

type Registry struct{}

type Counter struct{}

func (*Counter) Inc() {}

type Gauge struct{}

type Histogram struct{}

func (*Histogram) Observe(v float64) {}

type CounterVec struct{}

func (*CounterVec) With(values ...string) *Counter { return nil }

type HistogramVec struct{}

func (*HistogramVec) With(values ...string) *Histogram { return nil }

func (*Registry) Counter(name, help string) *Counter { return nil }
func (*Registry) Gauge(name, help string) *Gauge     { return nil }
func (*Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return nil
}
func (*Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return nil
}
func (*Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return nil
}
