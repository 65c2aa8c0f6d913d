// Package xrand provides a small, fast, deterministic pseudo-random
// number generator for the simulator.
//
// The simulator needs three properties the stdlib generators do not
// guarantee together:
//
//  1. Stable streams across Go releases (math/rand's global functions
//     changed seeding behaviour in Go 1.20): experiment output for a
//     given seed must be reproducible forever.
//  2. Cheap splittable sub-streams, so each simulated host can own an
//     independent generator derived from the experiment seed and the
//     host id, with no cross-correlation between hosts.
//  3. No locking: the round engine runs hosts in parallel, so every
//     host needs a private generator.
//
// The implementation is PCG-XSH-RR 64/32 (O'Neill, 2014) with a
// SplitMix64 seed scrambler. Both are public-domain algorithms that
// are trivially reimplemented from the reference definitions.
package xrand

import (
	"math"
	"math/bits"
)

const (
	pcgMultiplier = 6364136223846793005
	splitmixGamma = 0x9e3779b97f4a7c15
)

// Rand is a deterministic PCG-32 generator. It is not safe for
// concurrent use; create one per goroutine with Split.
type Rand struct {
	state uint64
	inc   uint64 // stream selector; always odd
}

// New returns a generator seeded from seed on the default stream.
func New(seed uint64) *Rand {
	return NewStream(seed, 0)
}

// NewStream returns a generator seeded from seed on the given stream.
// Different streams with the same seed produce independent sequences.
func NewStream(seed, stream uint64) *Rand {
	r := seeded(seed, stream)
	return &r
}

// seeded is NewStream by value. Keeping the arithmetic out of NewStream
// and Split leaves both small enough to inline, so a caller that copies
// the generator into a block of its own (*r.Split(i)) allocates nothing.
func seeded(seed, stream uint64) Rand {
	r := Rand{inc: (splitmix(stream) << 1) | 1}
	r.state = splitmix(seed) + r.inc
	r.Uint32()
	return r
}

// splitmix is the SplitMix64 output function, used to scramble seeds so
// that consecutive integer seeds yield unrelated states.
func splitmix(x uint64) uint64 {
	x += splitmixGamma
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Split derives an independent generator for sub-entity i (for example
// a host id). The derived stream is stable: Split(i) on generators with
// equal state yields equal streams.
func (r *Rand) Split(i uint64) *Rand {
	s := r.split(i)
	return &s
}

// split is Split by value.
func (r *Rand) split(i uint64) Rand {
	return seeded(r.state^splitmix(i), splitmix(i)^r.inc)
}

// Uint32 returns the next 32 uniformly distributed bits.
func (r *Rand) Uint32() uint32 {
	old := r.state
	r.state = old*pcgMultiplier + r.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint(old >> 59)
	return bits.RotateLeft32(xorshifted, -int(rot))
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	return uint64(r.Uint32())<<32 | uint64(r.Uint32())
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
//
// Uses Lemire's nearly-divisionless multiply-shift reduction: the
// high word of a 32×32 multiply is the draw, and the biased region at
// the bottom of the low word is rejected. The rejection threshold
// (2³² mod n) costs a hardware divide, so it is computed lazily, only
// when the low word falls below n — which happens with probability
// n/2³², so the hot path (a million peer picks per round at
// simulation scale) is multiply-shift-compare with no division at
// all. The lazy form accepts and rejects exactly the same draws as
// the eager one, so the output stream is unchanged
// (TestIntnMatchesEagerLemire pins this).
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with n <= 0")
	}
	if uint64(n) > 1<<32-1 {
		// A 32-bit draw cannot cover the range; refuse loudly rather
		// than truncate the bound (or, for exact multiples of 2³²,
		// degenerate into a constant 0).
		panic("xrand: Intn bound exceeds 32 bits")
	}
	bound := uint32(n)
	prod := uint64(r.Uint32()) * uint64(bound)
	if low := uint32(prod); low < bound {
		// threshold = 2³² mod bound < bound, so low ≥ bound always
		// passes and never needed the divide.
		threshold := -bound % bound
		for low < threshold {
			prod = uint64(r.Uint32()) * uint64(bound)
			low = uint32(prod)
		}
	}
	return int(prod >> 32)
}

// Float64 returns a uniform float64 in [0, 1) with 53 random bits.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns a fair coin flip.
func (r *Rand) Bool() bool {
	return r.Uint32()&1 == 1
}

// Prob returns true with probability p (clamped to [0,1]).
func (r *Rand) Prob(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// NormFloat64 returns a standard normal variate using the polar
// (Marsaglia) method.
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// Perm returns a uniform random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Sample fills dst with a uniform sample of distinct ints from [0, n)
// using Floyd's algorithm, and returns dst. It panics if len(dst) > n.
func (r *Rand) Sample(dst []int, n int) []int {
	k := len(dst)
	if k > n {
		panic("xrand: Sample size exceeds population")
	}
	seen := make(map[int]struct{}, k)
	idx := 0
	for j := n - k; j < n; j++ {
		t := r.Intn(j + 1)
		if _, dup := seen[t]; dup {
			t = j
		}
		seen[t] = struct{}{}
		dst[idx] = t
		idx++
	}
	return dst
}
