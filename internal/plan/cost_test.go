package plan

import (
	"testing"
	"time"
)

// fakeSource is a synthetic duration distribution.
type fakeSource struct {
	q float64 // seconds at every quantile
	n uint64
}

func (f *fakeSource) Quantile(float64) float64 { return f.q }
func (f *fakeSource) Count() uint64            { return f.n }

func TestCostModelUncalibrated(t *testing.T) {
	// No source at all.
	m := NewCostModel(nil)
	if _, ok := m.EstimateFull(3); ok {
		t.Error("nil source reported calibrated for uncached builds")
	}
	// Zero uncached builds is always estimable: just the search overhead.
	if est, ok := m.EstimateFull(0); !ok || est != 2*time.Millisecond {
		t.Errorf("EstimateFull(0) = %v, %v; want 2ms, true", est, ok)
	}
	// Source with too few samples.
	m = NewCostModel(&fakeSource{q: 0.1, n: 7})
	if _, ok := m.EstimateFull(1); ok {
		t.Error("7 samples under the 8-sample floor reported calibrated")
	}
	// At the floor it calibrates.
	m = NewCostModel(&fakeSource{q: 0.1, n: 8})
	if _, ok := m.EstimateFull(1); !ok {
		t.Error("8 samples at the 8-sample floor reported uncalibrated")
	}
}

func TestCostModelEstimate(t *testing.T) {
	// p90 build = 100ms, 2 uncached builds, 2ms overhead, 2x safety:
	// (2ms + 200ms) * 2 = 404ms.
	m := NewCostModel(&fakeSource{q: 0.1, n: 100})
	est, ok := m.EstimateFull(2)
	if !ok {
		t.Fatal("calibrated source reported uncalibrated")
	}
	if want := 404 * time.Millisecond; est != want {
		t.Errorf("EstimateFull(2) = %v, want %v", est, want)
	}
}
