// Package wire provides compact binary encodings for every gossip
// payload in the library, so bandwidth — the resource the paper's
// protocols are designed to conserve — can be measured in bytes
// rather than abstract message counts.
//
// The paper's §IV-B bandwidth argument ("Push-Sum-Revert requires
// several orders of magnitude less bandwidth and storage space than
// Count-Sketch-Reset") is about exactly these sizes: a mass vector is
// two floats, while a counter matrix is bins×levels counters. The
// encodings here are what a careful implementation would put on the
// radio:
//
//   - mass vectors: fixed 8-byte float64s (IEEE 754, little endian);
//   - counter matrices: run-length encoding, because a converged
//     matrix is dominated by long runs of Never (255) in the high
//     levels and long runs of small, similar ages in the low ones
//     (counters.go, with the age and min kernels every matrix user
//     shares);
//   - sketch bit vectors: raw 8-byte words (already dense);
//   - extremum candidate tables: varint-packed entries.
//
// All encodings are self-delimiting and round-trip exactly.
//
// A receiver never has to materialise a counter matrix: the transport
// reader checks an arriving encoding with ValidateCounters and queues
// the bytes, and the protocol's Receive folds them into its own matrix
// with DecodeCountersMin — on the per-host path (sketchreset.Packed,
// multi.Packed) exactly as on the columnar batch path (DeliverWire).
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// AppendMass appends the wire form of a (w, v) mass vector.
func AppendMass(dst []byte, w, v float64) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(w))
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// DecodeMass parses a mass vector, returning the remaining bytes.
func DecodeMass(src []byte) (w, v float64, rest []byte, err error) {
	if len(src) < 16 {
		return 0, 0, nil, fmt.Errorf("wire: mass needs 16 bytes, have %d", len(src))
	}
	w = math.Float64frombits(binary.LittleEndian.Uint64(src[0:8]))
	v = math.Float64frombits(binary.LittleEndian.Uint64(src[8:16]))
	return w, v, src[16:], nil
}

// AppendMass3 appends a (w, v, q) moments mass vector.
func AppendMass3(dst []byte, w, v, q float64) []byte {
	dst = AppendMass(dst, w, v)
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(q))
}

// DecodeMass3 parses a moments mass vector.
func DecodeMass3(src []byte) (w, v, q float64, rest []byte, err error) {
	w, v, rest, err = DecodeMass(src)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	if len(rest) < 8 {
		return 0, 0, 0, nil, fmt.Errorf("wire: mass3 needs 8 more bytes, have %d", len(rest))
	}
	q = math.Float64frombits(binary.LittleEndian.Uint64(rest[0:8]))
	return w, v, q, rest[8:], nil
}

// AppendSketchBits appends a sketch's bin words: a uvarint count then
// raw 8-byte little-endian words.
func AppendSketchBits(dst []byte, bits []uint64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(bits)))
	for _, b := range bits {
		dst = binary.LittleEndian.AppendUint64(dst, b)
	}
	return dst
}

// DecodeSketchBits parses sketch bin words.
func DecodeSketchBits(src []byte) (bits []uint64, rest []byte, err error) {
	count, n := binary.Uvarint(src)
	if n <= 0 {
		return nil, nil, fmt.Errorf("wire: sketch: bad bin count")
	}
	src = src[n:]
	// Compare in uint64 so an adversarial count cannot overflow
	// count*8 past the length check into a huge allocation.
	if count > uint64(len(src))/8 {
		return nil, nil, fmt.Errorf("wire: sketch: need %d bytes, have %d", count*8, len(src))
	}
	bits = make([]uint64, count)
	for i := range bits {
		bits[i] = binary.LittleEndian.Uint64(src[i*8 : i*8+8])
	}
	return bits, src[count*8:], nil
}

// Candidate mirrors extremes.Candidate without importing it (wire is a
// leaf package).
type Candidate struct {
	Value float64
	Owner int32
	Age   int32
}

// AppendCandidates appends an extremum candidate table: a uvarint
// count, then per candidate a raw float64 value, varint owner, varint
// age.
func AppendCandidates(dst []byte, cands []Candidate) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(cands)))
	for _, c := range cands {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(c.Value))
		dst = binary.AppendVarint(dst, int64(c.Owner))
		dst = binary.AppendVarint(dst, int64(c.Age))
	}
	return dst
}

// DecodeCandidates parses an extremum candidate table.
func DecodeCandidates(src []byte) (cands []Candidate, rest []byte, err error) {
	count, n := binary.Uvarint(src)
	if n <= 0 {
		return nil, nil, fmt.Errorf("wire: candidates: bad count")
	}
	src = src[n:]
	// A candidate is at least 10 bytes (8-byte value + 1-byte owner +
	// 1-byte age), so a count the remaining bytes cannot possibly hold
	// is rejected before it sizes an allocation.
	if count > uint64(len(src))/10 {
		return nil, nil, fmt.Errorf("wire: candidates: count %d exceeds %d remaining bytes", count, len(src))
	}
	cands = make([]Candidate, 0, count)
	for i := 0; i < int(count); i++ {
		if len(src) < 8 {
			return nil, nil, fmt.Errorf("wire: candidates: truncated value at %d", i)
		}
		value := math.Float64frombits(binary.LittleEndian.Uint64(src[:8]))
		src = src[8:]
		owner, n := binary.Varint(src)
		if n <= 0 {
			return nil, nil, fmt.Errorf("wire: candidates: bad owner at %d", i)
		}
		src = src[n:]
		age, n := binary.Varint(src)
		if n <= 0 {
			return nil, nil, fmt.Errorf("wire: candidates: bad age at %d", i)
		}
		src = src[n:]
		cands = append(cands, Candidate{Value: value, Owner: int32(owner), Age: int32(age)})
	}
	return cands, src, nil
}
