package wire

import (
	"bytes"
	"testing"
)

// TestDecodeCountersMin pins the in-place merge the live columnar path
// uses for Count-Sketch-Reset: decoding into an occupied block keeps
// the element-wise minimum, exactly the columnar Deliver's min-merge
// with the wire as the source.
func TestDecodeCountersMin(t *testing.T) {
	prior := []uint8{5, 0, 255, 7, 7, 200}
	incoming := []uint8{3, 9, 255, 7, 8, 0}
	buf := AppendCounters(nil, incoming)

	dst := append([]uint8(nil), prior...)
	rest, err := DecodeCountersMin(dst, buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Errorf("rest = %d bytes, want 0", len(rest))
	}
	want := []uint8{3, 0, 255, 7, 7, 0}
	if !bytes.Equal(dst, want) {
		t.Errorf("merged %v, want %v", dst, want)
	}

	// A zero destination (owned pins) can never be raised.
	zeros := make([]uint8, len(incoming))
	if _, err := DecodeCountersMin(zeros, buf); err != nil {
		t.Fatal(err)
	}
	for i, v := range zeros {
		if v != 0 {
			t.Errorf("index %d: pinned zero raised to %d", i, v)
		}
	}

	// Length mismatches and truncations are rejected like the plain
	// decoder's.
	if _, err := DecodeCountersMin(make([]uint8, len(incoming)-1), buf); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := DecodeCountersMin(append([]uint8(nil), prior...), buf[:len(buf)-1]); err == nil {
		t.Error("truncated input accepted")
	}
}
