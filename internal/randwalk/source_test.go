package randwalk

import (
	"math"
	"math/rand"
	"testing"
)

// TestSourceMatchesMathRand pins the lazily seeded source to
// rand.NewSource draw for draw: every walk, H cell, reach list, summary and
// golden answer is a function of this stream. The seeds cover the
// seed-normalization edges (0 and the multiples of 2³¹−1 that fall back to
// a fixed seed, negatives, the int64 extremes) and the per-start seeds
// Build derives; 1 500 draws per seed run past the point where the tap
// starts reading words the source itself wrote (draw 274) and past the
// register's wrap (draw 608), so every word, cooked constant and jump
// power is read.
func TestSourceMatchesMathRand(t *testing.T) {
	const draws = 1500
	var seeds []int64
	for _, m := range []int64{-3, -2, -1, 0, 1, 2, 1 << 32} {
		seeds = append(seeds, m*lcgMod, m*lcgMod+1, m*lcgMod-1)
	}
	seeds = append(seeds, math.MinInt64, math.MinInt64+1, math.MaxInt64, math.MaxInt64-1, zeroSeed)
	for _, base := range []int64{0, 1} {
		for w := 0; w < 1000; w++ {
			seeds = append(seeds, int64(splitmix64(uint64(base)^uint64(w)<<1)))
		}
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		seeds = append(seeds, rng.Int63()-rng.Int63())
	}

	// One source serves every seed, re-seeded after a full run: a word
	// left over from the previous seed must never be read as current.
	s := newSource(42)
	s.Uint64()
	for _, seed := range seeds {
		ref := rand.NewSource(seed).(rand.Source64)
		s.Seed(seed)
		for d := 0; d < draws; d++ {
			want, got := ref.Uint64(), s.Uint64()
			if d%3 == 2 {
				want, got = uint64(ref.Int63()), uint64(s.Int63())
			}
			if got != want {
				t.Fatalf("seed %d draw %d: got %#x, want %#x", seed, d, got, want)
			}
		}
	}

	// Re-seeding part way through a stream, at every phase of the
	// register, starts the new seed's stream from its first draw.
	s = newSource(0)
	for i, cut := range []int{0, 1, 5, 272, 273, 274, 333, 334, 335, 606, 607, 608, 1000} {
		for d := 0; d < cut; d++ {
			s.Uint64()
		}
		seed := seeds[len(seeds)-1-i]
		ref := rand.NewSource(seed)
		s.Seed(seed)
		for d := 0; d < 700; d++ {
			if want, got := ref.Int63(), s.Int63(); got != want {
				t.Fatalf("re-seeded after %d draws: seed %d draw %d: got %#x, want %#x", cut, seed, d, got, want)
			}
		}
	}

	// Intn through rand.New: the sampler's call, including the
	// power-of-two mask, the modulo and, for 2³⁰+1, rejection draws.
	for _, n := range []int{1, 2, 3, 7, 64, 1000, 1<<30 + 1} {
		mine, theirs := rand.New(newSource(0)), rand.New(rand.NewSource(0))
		for _, seed := range seeds[:300] {
			mine.Seed(seed)
			theirs.Seed(seed)
			for d := 0; d < 200; d++ {
				if want, got := theirs.Intn(n), mine.Intn(n); got != want {
					t.Fatalf("Intn(%d) seed %d draw %d: got %d, want %d", n, seed, d, got, want)
				}
			}
		}
	}
}

// BenchmarkSeedAndDraw times what one start node costs its generator at
// the server's R·L = 96: a seed and 100 draws, through rand.Rand as the
// sampler calls it.
func BenchmarkSeedAndDraw(b *testing.B) {
	for _, c := range []struct {
		name string
		src  rand.Source
	}{{"lazy", newSource(0)}, {"math_rand", rand.NewSource(0)}} {
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(c.src)
			sink := 0
			for i := 0; i < b.N; i++ {
				rng.Seed(int64(splitmix64(uint64(i))))
				for d := 0; d < 100; d++ {
					sink += rng.Intn(7)
				}
			}
			if sink < 0 {
				b.Fatal(sink)
			}
		})
	}
}
