package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

func fixture(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The fixtures were captured from a live pitserve (and its ops listener)
// on the machine the benchmark was written on.

func TestParseStatCPU(t *testing.T) {
	got, err := parseStatCPU(fixture(t, "proc_stat.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got != 933+22 {
		t.Errorf("utime+stime = %v ticks, want 955", got)
	}
	// A command name with spaces and parentheses must not shift the fields.
	got, err = parseStatCPU([]byte("77 (a (b) c) S 1 77 77 0 -1 4194560 9 0 0 0 12 34 0 0 20 0 1 0 5 6 7"))
	if err != nil || got != 46 {
		t.Errorf("odd command name: got %v, %v, want 46", got, err)
	}
	if _, err := parseStatCPU([]byte("77 (short) S 1 2")); err == nil {
		t.Error("a truncated stat line parsed")
	}
}

func TestParseVmHWM(t *testing.T) {
	got, err := parseVmHWM(fixture(t, "proc_status.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got != 158472*1024 {
		t.Errorf("VmHWM = %v bytes, want %d", got, 158472*1024)
	}
	if _, err := parseVmHWM([]byte("Name:\tpitserve\n")); err == nil {
		t.Error("a status text without VmHWM parsed")
	}
}

func TestParseHeapAlloc(t *testing.T) {
	got, err := parseHeapAlloc(fixture(t, "heap_debug1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got != 38738216 {
		t.Errorf("HeapAlloc = %v, want 38738216", got)
	}
	if _, err := parseHeapAlloc([]byte("heap profile: 0: 0 [0: 0] @ heap/1048576\n")); err == nil {
		t.Error("a profile without MemStats parsed")
	}
}

func TestParseMetrics(t *testing.T) {
	m := parseMetrics(fixture(t, "metrics.txt"))
	for series, want := range map[string]float64{
		"pit_stream_engine_swaps_total":                       4,
		`pit_summary_cache_hits_total{method="lrw"}`:          3600,
		"pit_index_build_duration_seconds_count":              5,
		`pit_http_requests_total{route="/search",code="200"}`: 42,
	} {
		if got, ok := m[series]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", series, got, ok, want)
		}
	}
	// A family sums over its label sets; a name that merely starts the
	// same is another family.
	if got := m.sum("pit_http_requests_total"); got != 1+8+42+4 {
		t.Errorf("sum(pit_http_requests_total) = %v, want 55", got)
	}
	if got := m.sum("pit_http_requests"); got != 0 {
		t.Errorf("sum of a name prefix = %v, want 0", got)
	}
	if got := m.sum("pit_index_build_duration_seconds_sum"); math.Abs(got-2.023368975) > 1e-12 {
		t.Errorf("float value = %v, want 2.023368975", got)
	}
	if got := m.sum("pit_shard_rounds_count"); got != 0 {
		t.Errorf("a family the server does not expose sums to %v, want 0", got)
	}
}
