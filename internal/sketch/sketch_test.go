package sketch

import (
	"math"
	"testing"
	"testing/quick"
)

func TestParamsValidate(t *testing.T) {
	cases := []struct {
		p  Params
		ok bool
	}{
		{Params{Bins: 64, Levels: 24}, true},
		{Params{Bins: 1, Levels: 1}, true},
		{Params{Bins: 0, Levels: 24}, false},
		{Params{Bins: -1, Levels: 24}, false},
		{Params{Bins: 64, Levels: 0}, false},
		{Params{Bins: 64, Levels: 65}, false},
		{Params{Bins: 64, Levels: 64}, true},
	}
	for _, c := range cases {
		err := c.p.Validate()
		if (err == nil) != c.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", c.p, err, c.ok)
		}
	}
}

func TestNewPanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with bad params did not panic")
		}
	}()
	New(Params{Bins: 0, Levels: 8})
}

func TestRho(t *testing.T) {
	cases := []struct {
		hash   uint64
		levels int
		want   int
	}{
		{1, 32, 0},      // lowest bit set
		{2, 32, 1},      // bit 1
		{4, 32, 2},      // bit 2
		{0b1100, 32, 2}, // first set bit is 2
		{0, 32, 31},     // all-zero hash saturates at top level
		{1 << 40, 32, 31},
		{1 << 5, 4, 3}, // saturate small level count
	}
	for _, c := range cases {
		if got := Rho(c.hash, c.levels); got != c.want {
			t.Errorf("Rho(%#x, %d) = %d, want %d", c.hash, c.levels, got, c.want)
		}
	}
}

// TestRhoDistribution checks the geometric law P[ρ=k] ≈ 2^-(k+1) that
// all FM estimates rest on.
func TestRhoDistribution(t *testing.T) {
	const n = 200000
	const levels = 24
	counts := make([]int, levels)
	for i := uint64(0); i < n; i++ {
		counts[Rho(HashID(i), levels)]++
	}
	for k := 0; k < 8; k++ {
		expected := float64(n) / math.Exp2(float64(k+1))
		got := float64(counts[k])
		// 5-sigma binomial tolerance
		tol := 5 * math.Sqrt(expected)
		if math.Abs(got-expected) > tol {
			t.Errorf("P[rho=%d]: got %v draws, expected %v±%v", k, got, expected, tol)
		}
	}
}

func TestPlaceBinUniformity(t *testing.T) {
	p := Params{Bins: 16, Levels: 24}
	const n = 160000
	counts := make([]int, p.Bins)
	for i := uint64(0); i < n; i++ {
		pos := p.Place(i)
		if pos.Bin < 0 || pos.Bin >= p.Bins {
			t.Fatalf("bin out of range: %d", pos.Bin)
		}
		if pos.Level < 0 || pos.Level >= p.Levels {
			t.Fatalf("level out of range: %d", pos.Level)
		}
		counts[pos.Bin]++
	}
	expected := float64(n) / float64(p.Bins)
	for b, c := range counts {
		if math.Abs(float64(c)-expected) > 5*math.Sqrt(expected) {
			t.Errorf("bin %d has %d items, expected ~%.0f", b, c, expected)
		}
	}
}

func TestPlaceDeterministic(t *testing.T) {
	p := DefaultParams
	f := func(id uint64) bool {
		return p.Place(id) == p.Place(id)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInsertAndBit(t *testing.T) {
	s := New(DefaultParams)
	s.Insert(12345)
	pos := DefaultParams.Place(12345)
	if !s.Bit(pos) {
		t.Fatal("inserted identifier's bit not set")
	}
}

func TestR(t *testing.T) {
	s := New(Params{Bins: 2, Levels: 16})
	if s.R(0) != 0 {
		t.Fatalf("empty bin R = %d, want 0", s.R(0))
	}
	s.setBit(Position{Bin: 0, Level: 0})
	s.setBit(Position{Bin: 0, Level: 1})
	s.setBit(Position{Bin: 0, Level: 3}) // gap at 2
	if s.R(0) != 2 {
		t.Fatalf("R = %d, want 2", s.R(0))
	}
	if s.R(1) != 0 {
		t.Fatalf("untouched bin R = %d, want 0", s.R(1))
	}
}

func TestRFullBin(t *testing.T) {
	p := Params{Bins: 1, Levels: 8}
	s := New(p)
	for k := 0; k < p.Levels; k++ {
		s.setBit(Position{Bin: 0, Level: k})
	}
	if s.R(0) != p.Levels {
		t.Fatalf("full bin R = %d, want %d", s.R(0), p.Levels)
	}
}

func TestMergeIsOR(t *testing.T) {
	a := New(DefaultParams)
	b := New(DefaultParams)
	a.Insert(1)
	b.Insert(2)
	a.Merge(b)
	if !a.Bit(DefaultParams.Place(1)) || !a.Bit(DefaultParams.Place(2)) {
		t.Fatal("merge lost bits")
	}
}

// Property: merge is commutative, associative and idempotent — the
// invariants that make the sketch safe under gossip re-delivery.
func TestMergeAlgebra(t *testing.T) {
	p := Params{Bins: 8, Levels: 16}
	build := func(ids []uint64) *Sketch {
		s := New(p)
		for _, id := range ids {
			s.Insert(id)
		}
		return s
	}
	f := func(x, y, z []uint64) bool {
		a, b, c := build(x), build(y), build(z)

		// commutative
		ab := a.Clone()
		ab.Merge(b)
		ba := b.Clone()
		ba.Merge(a)
		if !ab.Equal(ba) {
			return false
		}
		// associative
		abc1 := ab.Clone()
		abc1.Merge(c)
		bc := b.Clone()
		bc.Merge(c)
		abc2 := a.Clone()
		abc2.Merge(bc)
		if !abc1.Equal(abc2) {
			return false
		}
		// idempotent
		aa := a.Clone()
		aa.Merge(a)
		return aa.Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: duplicate insertion never changes the sketch — the
// duplicate-insensitivity that Considine et al. rely on.
func TestDuplicateInsensitive(t *testing.T) {
	f := func(ids []uint64) bool {
		p := Params{Bins: 8, Levels: 16}
		once := New(p)
		twice := New(p)
		for _, id := range ids {
			once.Insert(id)
			twice.Insert(id)
			twice.Insert(id)
		}
		return once.Equal(twice)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEstimateEmpty(t *testing.T) {
	s := New(DefaultParams)
	if got := s.Estimate(); got != 0 {
		t.Fatalf("empty sketch estimate = %v, want 0", got)
	}
}

// TestEstimateAccuracy inserts known populations and checks the
// estimate is within a few multiples of the analytic error bound.
func TestEstimateAccuracy(t *testing.T) {
	p := Params{Bins: 64, Levels: 24}
	for _, n := range []int{1000, 10000, 100000} {
		s := New(p)
		for i := 0; i < n; i++ {
			s.Insert(uint64(i) * 2654435761)
		}
		est := s.Estimate()
		relErr := math.Abs(est-float64(n)) / float64(n)
		// 9.7% expected at 64 bins; allow 4x slack for a single draw.
		if relErr > 4*p.ExpectedRelativeError() {
			t.Errorf("n=%d: estimate %.0f, relative error %.3f > %.3f",
				n, est, relErr, 4*p.ExpectedRelativeError())
		}
	}
}

// TestEstimateMonotone: inserting more identifiers never lowers the
// estimate (bits only turn on).
func TestEstimateMonotone(t *testing.T) {
	p := Params{Bins: 16, Levels: 20}
	s := New(p)
	prev := 0.0
	for i := 0; i < 5000; i++ {
		s.Insert(uint64(i) * 11400714819323198485)
		if i%500 == 0 {
			est := s.Estimate()
			if est < prev {
				t.Fatalf("estimate decreased from %v to %v at i=%d", prev, est, i)
			}
			prev = est
		}
	}
}

func TestInsertValue(t *testing.T) {
	p := Params{Bins: 64, Levels: 24}
	s := New(p)
	// 100 owners each contributing 50 → sum 5000
	for owner := uint64(0); owner < 100; owner++ {
		s.InsertValue(owner, 50)
	}
	est := s.Estimate()
	relErr := math.Abs(est-5000) / 5000
	if relErr > 4*p.ExpectedRelativeError() {
		t.Fatalf("sum estimate %.0f, relative error %.3f", est, relErr)
	}
}

func TestInsertValueZero(t *testing.T) {
	s := New(DefaultParams)
	s.InsertValue(7, 0)
	if s.Estimate() != 0 {
		t.Fatal("InsertValue(_, 0) should leave sketch empty")
	}
}

func TestMergePanicsOnMismatchedParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched merge did not panic")
		}
	}()
	a := New(Params{Bins: 8, Levels: 16})
	b := New(Params{Bins: 16, Levels: 16})
	a.Merge(b)
}

func TestCloneIndependent(t *testing.T) {
	a := New(DefaultParams)
	a.Insert(1)
	b := a.Clone()
	b.Insert(99999)
	if a.Equal(b) {
		t.Fatal("clone mutation affected original equality check unexpectedly")
	}
	if !a.Bit(DefaultParams.Place(1)) {
		t.Fatal("original lost its bit")
	}
}

// Bits is bin-major with level 0 in the low bit: setting every bit it
// reports, position by position, rebuilds the sketch.
func TestBitsRoundTrip(t *testing.T) {
	a := New(DefaultParams)
	for i := uint64(0); i < 100; i++ {
		a.Insert(i)
	}
	b := New(DefaultParams)
	for bin, word := range a.Bits() {
		for level := 0; level < DefaultParams.Levels; level++ {
			if word&(1<<level) != 0 {
				b.setBit(Position{Bin: bin, Level: level})
			}
		}
	}
	if !a.Equal(b) {
		t.Fatal("Bits did not round trip through setBit")
	}
}

// Writing one sketch of a block leaves its neighbours untouched, even
// when every bin of the written sketch is set.
func TestBlockSketchesAreIndependent(t *testing.T) {
	p := Params{Bins: 4, Levels: 8}
	block := NewBlock(p, 3)
	full := New(p)
	for j := 0; j < 10000; j++ {
		full.Insert(uint64(j))
	}
	block[1].Merge(full)
	block[1].InsertValue(7, 50)
	empty := New(p)
	for _, i := range []int{0, 2} {
		if !block[i].Equal(empty) {
			t.Errorf("neighbour %d changed: %v", i, block[i].Bits())
		}
	}
	if !block[1].Equal(full) {
		t.Errorf("written sketch %v, want %v", block[1].Bits(), full.Bits())
	}
}

// A block sketch behaves bit for bit like a New sketch under the same
// Insert, InsertValue and Merge, and estimates the same; CopyFrom
// works between two blocks.
func TestBlockSketchMatchesNew(t *testing.T) {
	p := Params{Bins: 16, Levels: 20}
	block, other := NewBlock(p, 2), NewBlock(p, 2)
	s := New(p)
	peer := New(p)
	for j := uint64(0); j < 300; j++ {
		block[0].Insert(j)
		s.Insert(j)
	}
	block[0].InsertValue(9, 40)
	s.InsertValue(9, 40)
	for j := uint64(1000); j < 1400; j++ {
		block[1].Insert(j)
		peer.Insert(j)
	}
	block[0].Merge(&block[1])
	s.Merge(peer)
	if !block[0].Equal(s) || block[0].Estimate() != s.Estimate() {
		t.Fatalf("block sketch %v (estimate %v), New sketch %v (estimate %v)",
			block[0].Bits(), block[0].Estimate(), s.Bits(), s.Estimate())
	}
	other[1].CopyFrom(&block[0])
	if !other[1].Equal(s) || !other[0].Equal(New(p)) {
		t.Errorf("CopyFrom across blocks: got %v beside %v", other[1].Bits(), other[0].Bits())
	}
}

func TestExpectedRelativeError(t *testing.T) {
	got := Params{Bins: 64, Levels: 24}.ExpectedRelativeError()
	if math.Abs(got-0.0975) > 0.001 {
		t.Fatalf("64-bin expected error = %v, want ≈0.0975 (the paper's 9.7%%)", got)
	}
}

func BenchmarkInsert(b *testing.B) {
	s := New(DefaultParams)
	for i := 0; i < b.N; i++ {
		s.Insert(uint64(i))
	}
}

func BenchmarkMerge(b *testing.B) {
	x := New(DefaultParams)
	y := New(DefaultParams)
	for i := uint64(0); i < 1000; i++ {
		x.Insert(i)
		y.Insert(i + 1000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Merge(y)
	}
}

func BenchmarkEstimate(b *testing.B) {
	s := New(DefaultParams)
	for i := uint64(0); i < 10000; i++ {
		s.Insert(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Estimate()
	}
}
