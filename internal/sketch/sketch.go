// Package sketch implements Flajolet-Martin probabilistic counting
// sketches with stochastic averaging, the substrate for the paper's
// Sketch-Count (Considine et al., ICDE'04) and Count-Sketch-Reset
// protocols.
//
// An identifier i is hashed and assigned a level ρ(i) with geometric
// distribution P[ρ(i)=k] = 2^-(k+1), and a bin uniform in [0, m). The
// sketch is, per bin, the bitwise OR of 2^ρ(i) over all inserted
// identifiers. R(bin) — the length of the contiguous run of ones
// starting at bit 0 — estimates log2(ϕ·n/m), so the number of distinct
// identifiers is estimated as m·2^avg(R)/ϕ with ϕ ≈ 0.77351.
//
// The sketch is duplicate-insensitive and merges by OR, which is what
// makes it usable over gossip: re-delivering or re-merging state never
// changes the estimate.
//
// Note on the paper's Figure 2/5: the estimate there is printed as
// |B|·ϕ·2^avg(R); the original Flajolet-Martin result E[R] ≈ log2(ϕn)
// implies n ≈ 2^R/ϕ, so the ϕ belongs in the denominator. We follow
// Flajolet-Martin (and Considine et al.), i.e. m·2^avg(R)/ϕ.
package sketch

import (
	"fmt"
	"math"
	"math/bits"
)

// Phi is the Flajolet-Martin magic constant relating E[R] to log2(n).
const Phi = 0.77351

// MaxLevels is the largest supported number of bit levels per bin.
const MaxLevels = 64

// Params configures a sketch family. All sketches that interact (merge,
// compare) must share identical Params.
type Params struct {
	// Bins is the stochastic-averaging bucket count m. More bins lower
	// the estimate's variance (expected relative error ≈ 0.78/√m; the
	// paper uses m=64 for ≈9.7%) at a linear cost in space.
	Bins int
	// Levels is the number of bits L per bin. It bounds the countable
	// population: counts up to roughly m·2^(Levels-4) are safe.
	Levels int
}

// DefaultParams matches the paper's evaluation: 64 bins, 24 levels.
var DefaultParams = Params{Bins: 64, Levels: 24}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.Bins <= 0 {
		return fmt.Errorf("sketch: Bins must be positive, got %d", p.Bins)
	}
	if p.Levels <= 0 || p.Levels > MaxLevels {
		return fmt.Errorf("sketch: Levels must be in [1,%d], got %d", MaxLevels, p.Levels)
	}
	return nil
}

// Position is a (bin, level) coordinate in a sketch: the single bit an
// identifier turns on.
type Position struct {
	Bin   int
	Level int
}

// HashID mixes an identifier into 64 well-distributed bits using the
// splitmix64 finalizer. The paper calls for an "L-bit cryptographic
// hash"; ρ only requires the geometric level distribution and
// determinism, which any hash with full avalanche provides (verified
// by distribution tests). FNV-1a is *not* sufficient here: its weak
// low-bit avalanche on small sequential inputs skews the trailing-zero
// distribution and biases estimates by 2-3×.
func HashID(id uint64) uint64 {
	x := id + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Rho returns the canonical FM level for a hash value: the index of
// the lowest set bit, capped at levels-1 (the paper assigns L when the
// hash is all zeroes; we saturate at the top level).
func Rho(hash uint64, levels int) int {
	if hash == 0 {
		return levels - 1
	}
	r := bits.TrailingZeros64(hash)
	if r >= levels {
		return levels - 1
	}
	return r
}

// Place maps an identifier to its sketch position: the bin comes from
// the high hash bits (uniform), the level from the low bits
// (geometric), so the two coordinates are effectively independent.
func (p Params) Place(id uint64) Position {
	h := HashID(id)
	bin := int((h >> 40) % uint64(p.Bins))
	level := Rho(h&((1<<40)-1), p.Levels)
	return Position{Bin: bin, Level: level}
}

// Sketch is an FM counting sketch: Bins bit-vectors of Levels bits.
// The zero Sketch is not usable; construct with New.
type Sketch struct {
	params Params
	bins   []uint64
}

// New returns an empty sketch with the given parameters.
func New(p Params) *Sketch { return &NewBlock(p, 1)[0] }

// NewBlock returns n empty sketches with the given parameters whose
// bins share one contiguous allocation, host-major: the layout of a
// population of sketches kept as one flat block. Each sketch's bins are
// capped at its own width, so no sketch can write into its neighbour.
func NewBlock(p Params, n int) []Sketch {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	bins := make([]uint64, n*p.Bins)
	block := make([]Sketch, n)
	for i := range block {
		block[i] = Sketch{params: p, bins: bins[i*p.Bins : (i+1)*p.Bins : (i+1)*p.Bins]}
	}
	return block
}

// Params returns the sketch's configuration.
func (s *Sketch) Params() Params { return s.params }

// Clone returns a deep copy of the sketch.
func (s *Sketch) Clone() *Sketch {
	c := &Sketch{params: s.params, bins: make([]uint64, len(s.bins))}
	copy(c.bins, s.bins)
	return c
}

// Detach implements gossip.Detacher for a sketch sent as a gossip
// payload, which may be its emitter's reused snapshot: a Clone.
func (s *Sketch) Detach() any { return s.Clone() }

// CopyFrom overwrites s with other's bits, reusing s's storage. Both
// must share Params. This is the allocation-free counterpart of Clone
// for snapshot buffers that are reused across gossip rounds.
func (s *Sketch) CopyFrom(other *Sketch) {
	if other.params != s.params {
		panic(fmt.Sprintf("sketch: copying mismatched params %+v and %+v", s.params, other.params))
	}
	copy(s.bins, other.bins)
}

// Insert records identifier id.
func (s *Sketch) Insert(id uint64) {
	pos := s.params.Place(id)
	s.bins[pos.Bin] |= 1 << uint(pos.Level)
}

// InsertValue records value v attributed to owner by inserting v
// derived identifiers, the paper's multiple-insertions summation. The
// derived identifiers are (owner, j) pairs, disjoint across owners.
func (s *Sketch) InsertValue(owner uint64, v int) {
	for j := 0; j < v; j++ {
		s.Insert(owner<<20 | uint64(j))
	}
}

// SetBit turns on one explicit position (used by protocols that manage
// their own placement).
func (s *Sketch) SetBit(pos Position) {
	s.bins[pos.Bin] |= 1 << uint(pos.Level)
}

// Bit reports whether the given position is set.
func (s *Sketch) Bit(pos Position) bool {
	return s.bins[pos.Bin]&(1<<uint(pos.Level)) != 0
}

// Merge ORs other into s. Both must share Params.
func (s *Sketch) Merge(other *Sketch) {
	if other.params != s.params {
		panic(fmt.Sprintf("sketch: merging mismatched params %+v and %+v", s.params, other.params))
	}
	for i, b := range other.bins {
		s.bins[i] |= b
	}
}

// Equal reports whether two sketches have identical parameters and
// bits.
func (s *Sketch) Equal(other *Sketch) bool {
	if s.params != other.params {
		return false
	}
	for i := range s.bins {
		if s.bins[i] != other.bins[i] {
			return false
		}
	}
	return true
}

// R returns Flajolet-Martin's R for one bin: the number of contiguous
// ones starting at bit 0 (equivalently, the index of the first zero).
func (s *Sketch) R(bin int) int {
	v := s.bins[bin]
	r := bits.TrailingZeros64(^v)
	if r > s.params.Levels {
		r = s.params.Levels
	}
	return r
}

// AvgR returns the mean R over all bins.
func (s *Sketch) AvgR() float64 {
	var sum int
	for i := 0; i < s.params.Bins; i++ {
		sum += s.R(i)
	}
	return float64(sum) / float64(s.params.Bins)
}

// Estimate returns the estimated number of distinct identifiers
// inserted across all merged sketches: m·2^avg(R)/ϕ. An entirely empty
// sketch estimates 0.
func (s *Sketch) Estimate() float64 {
	empty := true
	for _, b := range s.bins {
		if b != 0 {
			empty = false
			break
		}
	}
	if empty {
		return 0
	}
	return float64(s.params.Bins) * math.Exp2(s.AvgR()) / Phi
}

// Bits returns a copy of the raw bin bit-vectors, low bit = level 0.
func (s *Sketch) Bits() []uint64 {
	out := make([]uint64, len(s.bins))
	copy(out, s.bins)
	return out
}

// ExpectedRelativeError returns the analytic stochastic-averaging
// error bound ≈ 0.78/√m for the sketch's bin count (9.7% at m=64).
func (p Params) ExpectedRelativeError() float64 {
	return 0.78 / math.Sqrt(float64(p.Bins))
}
