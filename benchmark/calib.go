package main

// Speed normalisation. The sandbox this benchmark runs in drifts 10–30 %
// in speed for minutes at a time, so a raw wall-clock figure says as much
// about the machine as about the code. Every client therefore runs one
// fixed calibration slice before each request (it doubles as the client's
// think time) and every timing is reported as
//
//	raw × calRef / cal
//
// where cal is the median slice time over the same stretch of the run:
// "milliseconds at reference speed". Interleaving is what makes it track —
// bracketing a phase with calibration blocks does not.

import (
	"math/rand"
	"time"
)

const (
	// calRefMs is the slice time of the reference machine, a constant:
	// changing it rescales every metric and breaks the trajectory.
	calRefMs = 2.5

	calSeed   = 20170419 // fixed: the kernel's inputs never depend on -seed
	calLen    = 1 << 16
	calPasses = 4
)

// calibrator owns one client's private copy of the kernel inputs, so
// clients never share cache lines.
type calibrator struct {
	a, b []int32
	sink float64 // keeps the kernel's result live
}

func newCalibrator() *calibrator {
	rng := rand.New(rand.NewSource(calSeed))
	gen := func() []int32 {
		s := make([]int32, calLen)
		v := int32(0)
		for i := range s {
			v += 1 + int32(rng.Intn(3))
			s[i] = v
		}
		return s
	}
	return &calibrator{a: gen(), b: gen()}
}

// kernel is the calibration slice: a sorted-merge intersection of two
// 65 536-element arrays with a float multiply-add per match, four passes.
// Branchy integer compares plus a dependent float chain — the same mix as
// the search kernel's rep-list merge, so it slows down when that does.
func (c *calibrator) kernel() float64 {
	acc := 0.0
	for p := 0; p < calPasses; p++ {
		i, j := 0, 0
		for i < len(c.a) && j < len(c.b) {
			switch x, y := c.a[i], c.b[j]; {
			case x < y:
				i++
			case x > y:
				j++
			default:
				acc = acc*0.999999 + float64(x)
				i++
				j++
			}
		}
	}
	return acc
}

// slice runs the kernel once and returns how long it took, in ms.
func (c *calibrator) slice() float64 {
	t0 := time.Now()
	c.sink += c.kernel()
	return ms(time.Since(t0))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// normalise converts a raw timing to reference speed given the median
// calibration slice (ms) of the stretch it was measured in. A rate is
// normalised with the inverse factor.
func normalise(raw, calMs float64) float64 { return raw * calRefMs / calMs }
