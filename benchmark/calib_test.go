package main

import "testing"

// TestCalibrationKernelPinned pins the kernel's inputs and output. Every
// metric is a multiple of the slice time, so a kernel that drifted — other
// arrays, another pass count, a reordered float chain — would silently
// rescale the whole trajectory. If this fails, restore the kernel; do not
// update the numbers.
func TestCalibrationKernelPinned(t *testing.T) {
	c := newCalibrator()
	if len(c.a) != 1<<16 || len(c.b) != 1<<16 || c.a[len(c.a)-1] != 130652 || c.b[len(c.b)-1] != 131374 {
		t.Fatalf("kernel inputs changed: %d and %d elements ending in %d and %d", len(c.a), len(c.b), c.a[len(c.a)-1], c.b[len(c.b)-1])
	}
	const want = 8.023355967200149e+09
	if got := c.kernel(); got != want {
		t.Errorf("kernel() = %v, want %v", got, want)
	}
	if got := c.kernel(); got != want {
		t.Errorf("second kernel() = %v: the kernel must not keep state", got)
	}
	if ms := c.slice(); ms <= 0 {
		t.Errorf("slice() timed %v ms", ms)
	}
	d := newCalibrator()
	if &d.a[0] == &c.a[0] {
		t.Error("calibrators share their inputs; each client must own its copy")
	}
}
