package randwalk

import "math/rand"

// source is math/rand's generator — rand.NewSource's additive lagged
// Fibonacci register of 607 words with tap 273 — reproduced draw for draw,
// but seeded in O(1). rand.NewSource's Seed fills all 607 words up front,
// stepping the seeding generator x ← 48271·x mod (2³¹−1) about 1 840
// times, while a start node's R·L draws read a few hundred words at most.
// Seed here only records x₀ and starts a new epoch; a word is made the
// first time a draw reads it in that epoch, by jumping the seeding
// generator straight to the three values the word is built from
// (x_k = x₀·48271^k mod 2³¹−1) and XOR-ing in the same cooked constant
// rand.NewSource uses. Words stamped with an older epoch are stale, so
// Seed clears nothing.
type source struct {
	x0        uint64 // the seeding generator's state x₀, in [1, 2³¹−2]
	tap, feed int
	epoch     uint64
	vec       [srcLen]uint64
	stamp     [srcLen]uint64 // vec[i] belongs to this seed iff stamp[i] == epoch
}

const (
	srcLen = 607 // words in the register
	srcTap = 273 // lag of the second operand
	lcgMod = 1<<31 - 1
	lcgMul = 48271
	// lcgSkip is how many seeding steps rand.NewSource discards before
	// word 0; word i is then built from steps lcgSkip+1+3i … lcgSkip+3+3i.
	lcgSkip = 20
	// zeroSeed is what rand.NewSource seeds with in place of a seed ≡ 0
	// mod 2³¹−1, whose generator would be stuck at zero.
	zeroSeed = 89482311
)

// jumps[i] holds 48271^k mod 2³¹−1 for the three seeding steps k word i
// is built from.
var jumps = jumpTable()

// cooked[i] is the constant rand.NewSource XORs into word i. It is not
// copied into this file but recovered from math/rand's own stream (see
// cookedTable).
var cooked = cookedTable()

func jumpTable() (t [srcLen][3]uint64) {
	p := uint64(1)
	for k := 0; k < lcgSkip; k++ {
		p = lcgMulMod(p, lcgMul)
	}
	for i := range t {
		for j := range t[i] {
			p = lcgMulMod(p, lcgMul)
			t[i][j] = p
		}
	}
	return t
}

// cookedTable recovers the cooked constants from the first srcLen draws
// of rand.NewSource(1). Draw k (1-based) adds register words
// feed = (334−k) mod 607 and tap = (607−k) mod 607 and stores the sum at
// feed. From draw 274 on the tap word is the one draw k−273 stored, so
// those draws reveal the initial feed words (0…60, 334…606) as differences
// of outputs; the first 273 draws, whose taps are among those words, then
// reveal words 61…333. The initial register is the seeding words XOR the
// cooked constants, so XOR-ing the seeding words of seed 1 back out leaves
// the constants.
func cookedTable() (c [srcLen]uint64) {
	ref := rand.NewSource(1).(rand.Source64)
	var out [srcLen + 1]uint64
	for k := 1; k <= srcLen; k++ {
		out[k] = ref.Uint64()
	}
	var vec [srcLen]uint64
	for k := srcTap + 1; k <= srcLen; k++ {
		vec[(2*srcLen-srcTap-k)%srcLen] = out[k] - out[k-srcTap]
	}
	for k := 1; k <= srcTap; k++ {
		vec[srcLen-srcTap-k] = out[k] - vec[srcLen-k]
	}
	for i := range c {
		c[i] = vec[i] ^ seedWord(1, i)
	}
	return c
}

// lcgMulMod returns a·b mod 2³¹−1 for a, b < 2³¹, reducing the product by
// folding its high bits onto its low ones (2³¹ ≡ 1) instead of dividing.
func lcgMulMod(a, b uint64) uint64 {
	p := a * b
	r := p>>31 + p&lcgMod
	if r >= lcgMod {
		r -= lcgMod
	}
	return r
}

// seedWord is word i of the register rand.NewSource(seed) builds from the
// seeding generator started at x0, before the cooked constant goes in.
func seedWord(x0 uint64, i int) uint64 {
	j := &jumps[i]
	return lcgMulMod(x0, j[0])<<40 ^ lcgMulMod(x0, j[1])<<20 ^ lcgMulMod(x0, j[2])
}

func newSource(seed int64) *source {
	s := &source{}
	s.Seed(seed)
	return s
}

// Seed resets the source to the stream rand.NewSource(seed) produces.
func (s *source) Seed(seed int64) {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = zeroSeed
	}
	s.x0 = uint64(seed)
	s.tap, s.feed = 0, srcLen-srcTap
	s.epoch++
}

// word returns register word i, making it first if this seed has not yet
// read it.
func (s *source) word(i int) uint64 {
	if s.stamp[i] == s.epoch {
		return s.vec[i]
	}
	return s.materialize(i)
}

func (s *source) materialize(i int) uint64 {
	s.stamp[i] = s.epoch
	s.vec[i] = seedWord(s.x0, i) ^ cooked[i]
	return s.vec[i]
}

// Uint64 returns the next draw, exactly as rand.NewSource's Uint64 does.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += srcLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += srcLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return x
}

// Int63 returns the next draw's low 63 bits, as rand.NewSource's Int63 does.
func (s *source) Int63() int64 {
	return int64(s.Uint64() & (1<<63 - 1))
}
