// Native Go fuzz targets for every wire decoder that a network
// transport feeds with attacker-controllable bytes (a UDP socket is an
// open radio). The invariants under fuzz: no panics, no unbounded
// allocations, and every accepted input survives a
// decode → encode → decode cycle with identical values. Byte-identical
// re-encoding is NOT asserted: uvarints admit non-minimal forms and
// RLE admits split runs, so distinct encodings may legally carry the
// same value.
//
// `make fuzz-smoke` runs each target for 10 seconds; CI wires that
// into the live lane so decoder regressions are caught on every push.
package wire

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecodeCounters is differential: the validator and the decoder
// built on the shared run iterator must accept exactly the inputs the
// scalar reference decoder (counters_test.go) accepts, consume the same
// number of bytes and produce the same matrix.
func FuzzDecodeCounters(f *testing.F) {
	f.Add(AppendCounters(nil, []uint8{0, 0, 3, 255, 255, 255}))
	f.Add(AppendCounters(nil, make([]uint8, 64*24)))
	f.Add([]byte{6, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01, 0x00})
	f.Add([]byte{3, 0x81, 0x00, 7, 2, 9}) // non-minimal run length
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantRest, wantErr := refDecodeCountersAlloc(data, 64*24)
		n, rest, err := ValidateCounters(data, 64*24)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("validator err %v, reference err %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if n != len(want) || len(rest) != len(wantRest) {
			t.Fatalf("validator: %d elements, %d left; reference: %d elements, %d left", n, len(rest), len(want), len(wantRest))
		}
		got := make([]uint8, n)
		if rest, err = DecodeCounters(got, data); err != nil || len(rest) != len(wantRest) {
			t.Fatalf("DecodeCounters on validated input: %v (rest %d, want %d)", err, len(rest), len(wantRest))
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("decoded %v, reference %v", got, want)
		}
		again := make([]uint8, n)
		if rest, err = DecodeCounters(again, AppendCounters(nil, got)); err != nil || len(rest) != 0 {
			t.Fatalf("re-decode failed: %v (rest %d)", err, len(rest))
		}
		if !bytes.Equal(again, got) {
			t.Fatalf("value round trip: got %v, want %v", again, got)
		}
	})
}

func FuzzDecodeHeader(f *testing.F) {
	f.Add(AppendHeader(nil, Header{Kind: 1, To: 2, From: 3, Tick: 4}))
	f.Add(AppendHeader(nil, Header{Kind: 255, To: 1<<31 - 1, From: 0, Tick: 1<<31 - 1}))
	f.Add([]byte{envelopeVersion, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, _, err := DecodeHeader(data)
		if err != nil {
			return
		}
		if h.To < 0 || h.From < 0 || h.Tick < 0 {
			t.Fatalf("negative header field accepted: %+v", h)
		}
		again, rest, err := DecodeHeader(AppendHeader(nil, h))
		if err != nil || len(rest) != 0 {
			t.Fatalf("re-decode failed: %v (rest %d)", err, len(rest))
		}
		if again != h {
			t.Fatalf("value round trip: got %+v, want %+v", again, h)
		}
	})
}

func FuzzDecodeMass(f *testing.F) {
	f.Add(AppendMass(nil, 1, 2))
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, _, _, err := DecodeMass(data); err != nil {
			return
		}
	})
}

// FuzzDecodeCountersMin cross-checks the in-place min-merge against
// the plain decoder: on accepted input the merged block must be the
// element-wise minimum of the prior block and the decoded values, and
// on ANY input — accepted or not — the merge must never raise a
// counter (the monotonicity that makes partial merges on malformed
// batches safe).
func FuzzDecodeCountersMin(f *testing.F) {
	f.Add(AppendCounters(nil, []uint8{0, 9, 3, 255, 1, 2}))
	f.Add(AppendCounters(nil, make([]uint8, 64*24)))
	f.Add([]byte{6, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 64 * 24
		prior := make([]uint8, n)
		for i := range prior {
			prior[i] = uint8(i * 37)
		}
		merged := append([]uint8(nil), prior...)
		_, minErr := DecodeCountersMin(merged, data)
		for i := range merged {
			if merged[i] > prior[i] {
				t.Fatalf("index %d raised: %d -> %d", i, prior[i], merged[i])
			}
		}
		if minErr != nil {
			return
		}
		values := make([]uint8, n)
		if _, err := DecodeCounters(values, data); err != nil {
			t.Fatalf("DecodeCounters rejected input DecodeCountersMin accepted: %v", err)
		}
		for i := range merged {
			want := prior[i]
			if values[i] < want {
				want = values[i]
			}
			if merged[i] != want {
				t.Fatalf("index %d: got %d, want min(%d,%d)", i, merged[i], prior[i], values[i])
			}
		}
	})
}

// FuzzDecodeFrame attacks the stream-framing layer the TCP transport
// reads socket bytes through: adversarial length claims, truncation at
// every byte, and garbage prefixes. Invariants: no panic, oversize
// claims rejected before allocation, ErrShortFrame inputs returned
// intact for retry, and every accepted frame re-frames to a stream
// that decodes to the same payload.
func FuzzDecodeFrame(f *testing.F) {
	f.Add(AppendFrame(nil, []byte("hello")), 64)
	f.Add(AppendFrame(AppendFrame(nil, nil), []byte{1, 2, 3}), 16)
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}, 1024)
	f.Add([]byte{0x05, 0x01}, 1024)
	f.Fuzz(func(t *testing.T, data []byte, max int) {
		if max < 0 {
			max = -max
		}
		max %= 1 << 20
		frame, rest, err := DecodeFrame(data, max)
		if errors.Is(err, ErrShortFrame) {
			if len(rest) != len(data) {
				t.Fatalf("short frame consumed %d bytes", len(data)-len(rest))
			}
			return
		}
		if err != nil {
			return
		}
		if max > 0 && len(frame) > max {
			t.Fatalf("accepted %d-byte frame over the %d-byte limit", len(frame), max)
		}
		if len(frame)+len(rest) > len(data) {
			t.Fatalf("frame(%d)+rest(%d) exceed input(%d)", len(frame), len(rest), len(data))
		}
		again, tail, err := DecodeFrame(AppendFrame(nil, frame), len(frame)+1)
		if err != nil || len(tail) != 0 || !bytes.Equal(again, frame) {
			t.Fatalf("re-framed frame did not round-trip: %v", err)
		}
	})
}
