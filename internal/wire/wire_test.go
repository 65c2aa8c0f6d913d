package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
	"testing/quick"
)

func TestMassRoundTrip(t *testing.T) {
	prop := func(w, v float64) bool {
		buf := AppendMass(nil, w, v)
		if len(buf) != 16 {
			return false
		}
		gw, gv, rest, err := DecodeMass(buf)
		if err != nil || len(rest) != 0 {
			return false
		}
		return eq(gw, w) && eq(gv, v)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// eq treats NaN as equal to NaN (bit-level round trip).
func eq(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func TestMass3RoundTrip(t *testing.T) {
	prop := func(w, v, q float64) bool {
		buf := AppendMass3(nil, w, v, q)
		if len(buf) != 24 {
			return false
		}
		gw, gv, gq, rest, err := DecodeMass3(buf)
		if err != nil || len(rest) != 0 {
			return false
		}
		return eq(gw, w) && eq(gv, v) && eq(gq, q)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestMassDecodeShort(t *testing.T) {
	if _, _, _, err := DecodeMass(make([]byte, 15)); err == nil {
		t.Error("short mass accepted")
	}
	if _, _, _, _, err := DecodeMass3(make([]byte, 20)); err == nil {
		t.Error("short mass3 accepted")
	}
}

func TestCountersRoundTrip(t *testing.T) {
	prop := func(raw []uint8) bool {
		buf := AppendCounters(nil, raw)
		out := make([]uint8, len(raw))
		rest, err := DecodeCounters(out, buf)
		if err != nil || len(rest) != 0 {
			return false
		}
		for i := range raw {
			if out[i] != raw[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCountersCompression(t *testing.T) {
	// A converged matrix: long Never runs plus small-age runs.
	matrix := make([]uint8, 64*24)
	for i := range matrix {
		if i%24 < 6 {
			matrix[i] = uint8(i % 3)
		} else {
			matrix[i] = 255
		}
	}
	buf := AppendCounters(nil, matrix)
	// The Never runs (18 of 24 levels per bin) collapse to 2 bytes
	// each; the varying low levels dominate what remains.
	if len(buf) >= 2*len(matrix)/3 {
		t.Errorf("RLE produced %d bytes for a %d-byte matrix; expected at least 1.5x compression", len(buf), len(matrix))
	}
}

func TestCountersDecodeErrors(t *testing.T) {
	good := AppendCounters(nil, []uint8{1, 1, 2})
	// Wrong destination length.
	if _, err := DecodeCounters(make([]uint8, 5), good); err == nil {
		t.Error("length mismatch accepted")
	}
	// Truncated stream.
	if _, err := DecodeCounters(make([]uint8, 3), good[:len(good)-1]); err == nil {
		t.Error("truncated stream accepted")
	}
	if _, err := DecodeCounters(make([]uint8, 3), nil); err == nil {
		t.Error("empty stream accepted")
	}
	// Run overflowing the matrix.
	bad := AppendCounters(nil, []uint8{1, 1, 1, 1})
	bad[0] = 3 // lie about the element count downward
	if _, err := DecodeCounters(make([]uint8, 3), bad); err == nil {
		t.Error("overflowing run accepted")
	}
}

// Messages concatenate: decoding consumes exactly one value and
// returns the rest.
func TestStreamComposition(t *testing.T) {
	var buf []byte
	buf = AppendMass(buf, 1, 2)
	buf = AppendCounters(buf, []uint8{9, 9, 9})

	w, v, rest, err := DecodeMass(buf)
	if err != nil || w != 1 || v != 2 {
		t.Fatalf("mass: %v %v %v", w, v, err)
	}
	counters := make([]uint8, 3)
	rest, err = DecodeCounters(counters, rest)
	if err != nil || len(rest) != 0 || counters[2] != 9 {
		t.Fatalf("counters: %v %v (rest %d)", counters, err, len(rest))
	}
}

// put8 is the encoding the four fixed-width append sites used before
// they switched to binary.LittleEndian.AppendUint64: each word written
// into a stack array, then the array appended.
func put8(dst []byte, word uint64) []byte {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], word)
	return append(dst, buf[:]...)
}

// TestFixedWidthAppendsKeepTheirBytes proves the wire format of mass
// vectors, sketch words and candidate values did not move when the
// appends stopped staging through a stack array: every vector —
// including NaNs with payload bits, -0 and subnormals, which a detour
// through float arithmetic would canonicalise — must encode to the old
// shape's bytes, and the whole sequence to a digest recorded before the
// change.
func TestFixedWidthAppendsKeepTheirBytes(t *testing.T) {
	f := math.Float64frombits
	vectors := []float64{
		0, math.Copysign(0, -1), 1, -1.5, math.Pi, math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, f(0x000FFFFFFFFFFFFF), // subnormals
		math.Inf(1), math.Inf(-1),
		f(0x7FF8000000000001), f(0xFFF8DEADBEEF0001), f(0x7FF0000000000001), // quiet and signalling NaNs with payloads
	}
	prefix := []byte{0xAA, 0xBB, 0xCC} // appends must extend, not overwrite
	var all []byte
	for i, a := range vectors {
		b, c := vectors[(i+1)%len(vectors)], vectors[(i+2)%len(vectors)]
		wa, wb, wc := math.Float64bits(a), math.Float64bits(b), math.Float64bits(c)

		got := AppendMass(append([]byte(nil), prefix...), a, b)
		want := put8(put8(append([]byte(nil), prefix...), wa), wb)
		if !bytes.Equal(got, want) {
			t.Errorf("AppendMass(%x, %x) = %x, want %x", wa, wb, got, want)
		}
		all = append(all, got...)

		got = AppendMass3(append([]byte(nil), prefix...), a, b, c)
		want = put8(put8(put8(append([]byte(nil), prefix...), wa), wb), wc)
		if !bytes.Equal(got, want) {
			t.Errorf("AppendMass3(%x, %x, %x) = %x, want %x", wa, wb, wc, got, want)
		}
		all = append(all, got...)

		got = AppendSketchBits(append([]byte(nil), prefix...), []uint64{wa, wb, wc})
		want = put8(put8(put8(append(append([]byte(nil), prefix...), 3), wa), wb), wc)
		if !bytes.Equal(got, want) {
			t.Errorf("AppendSketchBits(%x, %x, %x) = %x, want %x", wa, wb, wc, got, want)
		}
		all = append(all, got...)

		cands := []Candidate{{Value: a, Owner: int32(i), Age: -int32(i)}, {Value: b, Owner: math.MaxInt32, Age: math.MinInt32}}
		got = AppendCandidates(append([]byte(nil), prefix...), cands)
		want = append(append([]byte(nil), prefix...), 2)
		for _, cd := range cands {
			want = put8(want, math.Float64bits(cd.Value))
			want = binary.AppendVarint(want, int64(cd.Owner))
			want = binary.AppendVarint(want, int64(cd.Age))
		}
		if !bytes.Equal(got, want) {
			t.Errorf("AppendCandidates(%+v) = %x, want %x", cands, got, want)
		}
		all = append(all, got...)
	}
	const golden = "e2843d092532fda5181ef2be579d5f32e746d44f4c72d17b9304a629ae09bcdc"
	if sum := sha256.Sum256(all); hex.EncodeToString(sum[:]) != golden {
		t.Errorf("fixed-width encodings hash to %x, want %s", sum, golden)
	}
}
