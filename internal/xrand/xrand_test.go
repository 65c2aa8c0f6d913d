package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("sequence diverged at step %d: %d != %d", i, got, want)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint32() == b.Uint32() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical draws", same)
	}
}

func TestStreamsDiffer(t *testing.T) {
	a := NewStream(7, 0)
	b := NewStream(7, 1)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint32() == b.Uint32() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams 0 and 1 produced %d/100 identical draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	root := New(99)
	a := root.Split(1)
	b := root.Split(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint32() == b.Uint32() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split streams produced %d/100 identical draws", same)
	}
}

func TestSplitStable(t *testing.T) {
	a := New(5).Split(17)
	b := New(5).Split(17)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("Split not stable at draw %d", i)
		}
	}
}

// TestSplitIntoBlockAllocatesNothing pins what the engines' per-host
// PRNG blocks rely on: a split copied into a slot of a flat block is
// not heap-allocated first.
func TestSplitIntoBlockAllocatesNothing(t *testing.T) {
	root, block := New(5), make([]Rand, 4)
	got := testing.AllocsPerRun(100, func() {
		for i := range block {
			block[i] = *root.Split(uint64(i))
		}
	})
	if got != 0 {
		t.Errorf("%.0f allocations per %d splits into a block, want 0", got, len(block))
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	f := func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnPanicsBeyond32Bits(t *testing.T) {
	if uint64(^uint(0)) <= 1<<32-1 {
		t.Skip("32-bit int platform: oversized bounds unrepresentable")
	}
	// 1<<32 wraps uint32(n) to 0: the eager form panicked on the
	// threshold divide, and the lazy form must stay loud rather than
	// returning a constant 0.
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(1<<32) did not panic")
		}
	}()
	New(1).Intn(1 << 32)
}

// eagerLemireIntn is the reference bounded draw Intn replaced: the
// same multiply-shift rejection, with the threshold divide paid
// eagerly on every call. The lazy implementation must accept and
// reject exactly the same Uint32 draws, so the two produce identical
// value streams from identical generator states.
func eagerLemireIntn(r *Rand, n int) int {
	bound := uint32(n)
	threshold := -bound % bound
	for {
		v := r.Uint32()
		prod := uint64(v) * uint64(bound)
		if uint32(prod) >= threshold {
			return int(prod >> 32)
		}
	}
}

// TestIntnMatchesEagerLemire pins the nearly-divisionless Intn to the
// eager reference draw-for-draw across awkward bounds (powers of two,
// off-by-one neighbours, primes, and bounds large enough to make
// rejection common), guaranteeing that the optimization moved no
// golden value anywhere in the simulator.
func TestIntnMatchesEagerLemire(t *testing.T) {
	bounds := []int{1, 2, 3, 7, 10, 16, 17, 97, 1000, 4096, 1 << 20,
		1<<31 - 1, 3<<29 + 11}
	for _, n := range bounds {
		a := New(42)
		b := New(42)
		for i := 0; i < 2000; i++ {
			got, want := a.Intn(n), eagerLemireIntn(b, n)
			if got != want {
				t.Fatalf("Intn(%d) draw %d: got %d, reference %d", n, i, got, want)
			}
			if a.state != b.state {
				t.Fatalf("Intn(%d) draw %d: generator states diverged", n, i)
			}
		}
	}
}

// TestIntnGolden pins absolute values of the bounded draw, so any
// future change to the reduction (or to the underlying PCG stream)
// that would silently invalidate recorded experiment output fails
// loudly here.
func TestIntnGolden(t *testing.T) {
	r := New(1)
	got := make([]int, 12)
	for i := range got {
		got[i] = r.Intn(100000)
	}
	want := []int{38048, 84187, 69173, 77767, 24074, 92061, 39646, 38957, 38461, 38466, 51196, 33884}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Intn(100000) sequence diverged at %d: got %v, want %v", i, got, want)
		}
	}
}

func TestIntnUniformity(t *testing.T) {
	r := New(11)
	const n = 10
	const draws = 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	expected := float64(draws) / n
	for v, c := range counts {
		if math.Abs(float64(c)-expected) > 5*math.Sqrt(expected) {
			t.Errorf("value %d drawn %d times, expected ~%.0f", v, c, expected)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(8)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(21)
	var sum float64
	const draws = 200000
	for i := 0; i < draws; i++ {
		sum += r.Float64()
	}
	mean := sum / draws
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestProbExtremes(t *testing.T) {
	r := New(1)
	for i := 0; i < 100; i++ {
		if r.Prob(0) {
			t.Fatal("Prob(0) returned true")
		}
		if !r.Prob(1) {
			t.Fatal("Prob(1) returned false")
		}
	}
}

func TestProbRate(t *testing.T) {
	r := New(13)
	const draws = 100000
	hits := 0
	for i := 0; i < draws; i++ {
		if r.Prob(0.3) {
			hits++
		}
	}
	rate := float64(hits) / draws
	if math.Abs(rate-0.3) > 0.01 {
		t.Fatalf("Prob(0.3) hit rate = %v", rate)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(77)
	f := func(nRaw uint8) bool {
		n := int(nRaw % 64)
		p := r.Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSampleDistinct(t *testing.T) {
	r := New(31)
	f := func(kRaw, nRaw uint8) bool {
		n := int(nRaw%100) + 1
		k := int(kRaw) % (n + 1)
		dst := r.Sample(make([]int, k), n)
		seen := make(map[int]bool, k)
		for _, v := range dst {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(dst) == k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSamplePanicsWhenTooLarge(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Sample with k > n did not panic")
		}
	}()
	New(1).Sample(make([]int, 5), 3)
}

func TestShufflePreservesElements(t *testing.T) {
	r := New(55)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	for _, v := range xs {
		sum += v
	}
	if sum != 36 {
		t.Fatalf("shuffle lost elements: sum=%d", sum)
	}
}

func TestExpFloat64Positive(t *testing.T) {
	r := New(9)
	var sum float64
	const draws = 100000
	for i := 0; i < draws; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("ExpFloat64 negative: %v", v)
		}
		sum += v
	}
	mean := sum / draws
	if math.Abs(mean-1) > 0.02 {
		t.Fatalf("ExpFloat64 mean = %v, want ~1", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(12)
	var sum, sumsq float64
	const draws = 200000
	for i := 0; i < draws; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / draws
	variance := sumsq/draws - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("NormFloat64 mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("NormFloat64 variance = %v, want ~1", variance)
	}
}

func TestBoolBalance(t *testing.T) {
	r := New(66)
	trues := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		if r.Bool() {
			trues++
		}
	}
	rate := float64(trues) / draws
	if math.Abs(rate-0.5) > 0.01 {
		t.Fatalf("Bool true rate = %v", rate)
	}
}

func BenchmarkUint32(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint32()
	}
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Intn(100000)
	}
}

func BenchmarkFloat64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Float64()
	}
}
