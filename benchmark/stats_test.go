package main

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{40, 10, 30, 20} // unsorted on purpose: percentile must not depend on order
	for _, c := range []struct{ p, want float64 }{
		{0, 10}, {50, 25}, {100, 40}, {25, 17.5}, {95, 38.5},
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 40 {
		t.Error("percentile reordered its input")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of odd sample = %v, want 2", got)
	}
	if got := percentile([]float64{7}, 95); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 50)) || !math.IsNaN(mean(nil)) {
		t.Error("an empty sample must give NaN, so a metric without samples cannot pass for a number")
	}
}

func TestNormalise(t *testing.T) {
	// A machine running at half speed takes 5 ms for the 2.5 ms slice and
	// 40 ms for a 20 ms request: the normalised figure is the 20 ms.
	if got := normalise(40, 5); got != 20 {
		t.Errorf("normalise(40, 5) = %v, want 20", got)
	}
	if got := normalise(12, calRefMs); got != 12 {
		t.Errorf("normalise at reference speed changed the value: %v", got)
	}
	got := normaliseAll([]float64{1}, []float64{10, 20}, 5)
	if len(got) != 3 || got[0] != 1 || got[1] != 5 || got[2] != 10 {
		t.Errorf("normaliseAll = %v, want [1 5 10]", got)
	}
}

// TestSearchSamplesRounds pins the per-round arithmetic: latencies are
// normalised with their own round's slice time, capacity is summed over
// clients and normalised the other way, and the reported rate is the
// median over rounds.
func TestSearchSamplesRounds(t *testing.T) {
	var s searchSamples
	// Reference speed: two clients, 4 requests in 40 ms and 2 in 40 ms.
	s.addPass(stretch{perClient: [][]float64{{10, 10, 10, 10}, {20, 20}}, slices: []float64{2.5, 2.5, 2.5}, cpuMs: 60})
	// Half speed, same work: everything takes twice as long.
	s.addPass(stretch{perClient: [][]float64{{20, 20, 20, 20}, {40, 40}}, slices: []float64{5, 5, 5}, cpuMs: 120})
	// A disturbed round that the median must ignore.
	s.addPass(stretch{perClient: [][]float64{{10, 10, 10, 10}, {200, 200}}, slices: []float64{2.5, 2.5, 2.5}, cpuMs: 60})

	if got := s.qps[0]; math.Abs(got-150) > 1e-9 { // 4/0.04 + 2/0.04
		t.Errorf("round 0 capacity = %v, want 150", got)
	}
	if got := s.qps[1]; math.Abs(got-150) > 1e-9 {
		t.Errorf("half-speed round normalised capacity = %v, want 150", got)
	}
	if got := s.rawQps[1]; math.Abs(got-75) > 1e-9 {
		t.Errorf("half-speed round raw capacity = %v, want 75", got)
	}
	if got := median(s.qps); math.Abs(got-150) > 1e-9 {
		t.Errorf("median over rounds = %v, want 150", got)
	}
	if got := percentile(s.lat[:12], 50); got != 10 {
		t.Errorf("normalised p50 of the two clean rounds = %v, want 10", got)
	}
	if s.searches != 18 || math.Abs(s.cpuMs-180) > 1e-9 {
		t.Errorf("searches, cpu = %d, %v, want 18, 180", s.searches, s.cpuMs)
	}
}
