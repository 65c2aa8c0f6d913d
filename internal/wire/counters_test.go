package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// The scalar loops the word-wise kernels and the shared run iterator
// replaced, kept as the reference the differential tests (and
// FuzzDecodeCounters) compare against.

func refAge(c []uint8) {
	for i, v := range c {
		if v < 254 {
			c[i] = v + 1
		}
	}
}

func refMin(dst, src []uint8) {
	for i, v := range src {
		if v < dst[i] {
			dst[i] = v
		}
	}
}

func refDecodeCounters(dst []uint8, src []byte, min bool) (rest []byte, err error) {
	total, n := binary.Uvarint(src)
	if n <= 0 {
		return nil, fmt.Errorf("bad element count")
	}
	if int(total) != len(dst) {
		return nil, fmt.Errorf("got %d elements, want %d", total, len(dst))
	}
	src = src[n:]
	at := 0
	for at < len(dst) {
		run, n := binary.Uvarint(src)
		if n <= 0 {
			return nil, fmt.Errorf("bad run length at element %d", at)
		}
		src = src[n:]
		if len(src) < 1 {
			return nil, fmt.Errorf("missing run value at element %d", at)
		}
		v := src[0]
		src = src[1:]
		if run == 0 || run > uint64(len(dst)-at) {
			return nil, fmt.Errorf("run %d overflows matrix at element %d", run, at)
		}
		for k := 0; k < int(run); k++ {
			if !min || v < dst[at+k] {
				dst[at+k] = v
			}
		}
		at += int(run)
	}
	return src, nil
}

func refDecodeCountersAlloc(src []byte, maxElements int) (counters []uint8, rest []byte, err error) {
	total, n := binary.Uvarint(src)
	if n <= 0 {
		return nil, nil, fmt.Errorf("bad element count")
	}
	if total == 0 || total > uint64(maxElements) {
		return nil, nil, fmt.Errorf("element count %d outside [1, %d]", total, maxElements)
	}
	counters = make([]uint8, total)
	rest, err = refDecodeCounters(counters, src, false)
	if err != nil {
		return nil, nil, err
	}
	return counters, rest, nil
}

func refAppendCounters(dst []byte, counters []uint8) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(counters)))
	for i := 0; i < len(counters); {
		j := i + 1
		for j < len(counters) && counters[j] == counters[i] {
			j++
		}
		dst = binary.AppendUvarint(dst, uint64(j-i))
		dst = append(dst, counters[i])
		i = j
	}
	return dst
}

// TestMinEveryBytePair puts every (a, b) pair through the word lanes
// (each pair at every lane position) and through the byte tail.
func TestMinEveryBytePair(t *testing.T) {
	for a := 0; a < 256; a++ {
		dst, src := make([]uint8, 256*9), make([]uint8, 256*9)
		for b := 0; b < 256; b++ {
			for k := 0; k < 9; k++ {
				dst[b*9+k], src[b*9+k] = uint8(a), uint8(b)
			}
		}
		want := bytes.Clone(dst)
		refMin(want, src)
		MinCounters(dst, src)
		if !bytes.Equal(dst, want) {
			t.Fatalf("a=%d: MinCounters differs from the scalar loop", a)
		}
		for b := 0; b < 256; b++ {
			for _, n := range []int{1, 7, 8, 13} {
				got, ref := bytes.Repeat([]uint8{uint8(a)}, n), bytes.Repeat([]uint8{uint8(a)}, n)
				minRun(got, uint8(b))
				refMin(ref, bytes.Repeat([]uint8{uint8(b)}, n))
				if !bytes.Equal(got, ref) {
					t.Fatalf("minRun(%d × %d, %d) = %v, want %v", n, a, b, got, ref)
				}
			}
		}
	}
}

// TestAgeEveryByte ages every byte value at every lane position and in
// the tail; 254 and 255 must not move.
func TestAgeEveryByte(t *testing.T) {
	c := make([]uint8, 256*9+5)
	for i := range c {
		c[i] = uint8(i / 9)
	}
	want := bytes.Clone(c)
	refAge(want)
	AgeCounters(c)
	if !bytes.Equal(c, want) {
		t.Fatal("AgeCounters differs from the scalar loop")
	}
	for _, v := range []uint8{CounterMaxAge, CounterNever} {
		s := bytes.Repeat([]uint8{v}, 19)
		AgeCounters(s)
		if !bytes.Equal(s, bytes.Repeat([]uint8{v}, 19)) {
			t.Errorf("age moved %d: %v", v, s)
		}
	}
}

// TestKernelsEveryLength covers the word/tail split: every length 0–24
// of random data through age, min, the encoder and both decoders.
func TestKernelsEveryLength(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 0; n <= 24; n++ {
		for trial := 0; trial < 200; trial++ {
			a, b := randomCounters(rng, n), randomCounters(rng, n)
			checkKernels(t, a, b)
		}
	}
}

// TestKernelsRandomMatrices runs the same comparison on sketch-sized
// matrices with converged-looking structure (long Never runs, short
// runs of small ages).
func TestKernelsRandomMatrices(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		checkKernels(t, randomCounters(rng, 64*24), randomCounters(rng, 64*24))
	}
	// Runs whose length needs a multi-byte varint.
	for _, v := range []uint8{0, 9, CounterNever} {
		checkKernels(t, randomCounters(rng, 64*24), bytes.Repeat([]uint8{v}, 64*24))
		checkKernels(t, randomCounters(rng, 1<<15), bytes.Repeat([]uint8{v}, 1<<15))
	}
}

// randomCounters draws n counters as runs: mostly short, a third of
// them Never, ages biased to the small and the saturating values.
func randomCounters(rng *rand.Rand, n int) []uint8 {
	c := make([]uint8, 0, n)
	for len(c) < n {
		run := 1 + rng.Intn(3)
		if rng.Intn(4) == 0 {
			run = 1 + rng.Intn(40)
		}
		var v uint8
		switch rng.Intn(6) {
		case 0, 1:
			v = CounterNever
		case 2:
			v = uint8(250 + rng.Intn(6))
		case 3:
			v = uint8(rng.Intn(256))
		default:
			v = uint8(rng.Intn(12))
		}
		for ; run > 0 && len(c) < n; run-- {
			c = append(c, v)
		}
	}
	return c
}

func checkKernels(t *testing.T, a, b []uint8) {
	t.Helper()
	got, want := bytes.Clone(a), bytes.Clone(a)
	AgeCounters(got)
	refAge(want)
	if !bytes.Equal(got, want) {
		t.Fatalf("age(%v) = %v, want %v", a, got, want)
	}
	got, want = bytes.Clone(a), bytes.Clone(a)
	MinCounters(got, b)
	refMin(want, b)
	if !bytes.Equal(got, want) {
		t.Fatalf("min(%v, %v) = %v, want %v", a, b, got, want)
	}
	enc := AppendCounters([]byte{0xAA}, b)
	if ref := refAppendCounters([]byte{0xAA}, b); !bytes.Equal(enc, ref) {
		t.Fatalf("AppendCounters(%v) = %x, want %x", b, enc, ref)
	}
	enc = append(enc[1:], 0xEE)
	for _, min := range []bool{false, true} {
		got, want = bytes.Clone(a), bytes.Clone(a)
		decode := DecodeCounters
		if min {
			decode = DecodeCountersMin
		}
		rest, err := decode(got, enc)
		refRest, refErr := refDecodeCounters(want, enc, min)
		if err != nil || refErr != nil {
			t.Fatalf("decode(min=%v) of a valid encoding: %v / reference %v", min, err, refErr)
		}
		if !bytes.Equal(rest, refRest) || !bytes.Equal(got, want) {
			t.Fatalf("decode(min=%v) of %v into %v = %v (rest %x), want %v (rest %x)", min, b, a, got, rest, want, refRest)
		}
	}
	if len(b) > 0 {
		if n, rest, err := ValidateCounters(enc, len(b)); err != nil || n != len(b) || !bytes.Equal(rest, []byte{0xEE}) {
			t.Fatalf("ValidateCounters = %d, %x, %v", n, rest, err)
		}
	}
}
