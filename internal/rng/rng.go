// Package rng provides a small, fast, deterministic pseudo-random number
// generator used throughout the library for workload generation and
// randomized heuristics.
//
// All experiments in this repository are seeded, so results are exactly
// reproducible run-to-run. The generator is xoshiro256** seeded via
// splitmix64, the combination recommended by its authors. It is NOT
// cryptographically secure; it is a simulation RNG.
package rng

import "math/bits"

// RNG is a xoshiro256** pseudo-random generator. The zero value is invalid;
// use New. RNG is not safe for concurrent use; give each goroutine its own
// (see Split).
type RNG struct {
	s [4]uint64
}

// New returns a generator seeded from the given seed via splitmix64.
// Distinct seeds yield statistically independent streams.
func New(seed uint64) *RNG {
	r := &RNG{}
	for i := range r.s {
		r.s[i] = SplitMix64(seed)
		seed += 0x9e3779b97f4a7c15
	}
	return r
}

// SplitMix64 is one step of the splitmix64 generator from state x: x
// advanced by the golden-ratio increment, then put through the
// finalizing mix. As a pure function it is a full-avalanche 64-bit
// hash, which is how the fault injectors use it.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Split derives a new independent generator from r, advancing r.
// Use it to hand per-worker generators to goroutines.
func (r *RNG) Split() *RNG {
	return New(r.Uint64())
}

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation.
	un := uint64(n)
	x := r.Uint64()
	hi, lo := bits.Mul64(x, un)
	if lo < un {
		thresh := -un % un
		for lo < thresh {
			x = r.Uint64()
			hi, lo = bits.Mul64(x, un)
		}
	}
	return int(hi)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a uniformly random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(p)
	return p
}

// Shuffle permutes p uniformly at random in place (Fisher–Yates).
func (r *RNG) Shuffle(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Bool returns true with probability 1/2.
func (r *RNG) Bool() bool { return r.Uint64()&1 == 1 }
