package transport

import (
	"encoding/binary"
	"fmt"

	"dynagg/internal/gossip"
	"dynagg/internal/protocol/extremes"
	"dynagg/internal/protocol/moments"
	"dynagg/internal/protocol/multi"
	"dynagg/internal/protocol/pushsumrevert"
	"dynagg/internal/protocol/sketchreset"
	"dynagg/internal/sketch"
	"dynagg/internal/wire"
)

// Protocol kind tags carried in the envelope header so a datagram is
// self-describing: the receiver needs no out-of-band agreement about
// which protocol is running to decode (or reject) a payload.
const (
	// Kind 1 tagged plain Push-Sum mass before Push-Sum became
	// Push-Sum-Revert at λ = 0 (kindRevertMass). It is retired, not
	// reused: a kind-1 envelope decodes as unknown, and the kinds below
	// keep their numbers.
	kindRevertMass uint8 = iota + 2
	kindMomentsMass
	kindResetCounters
	kindSketchBits
	kindCandidates
	// kindColumnarBatch tags a Batcher datagram: the header's To is
	// the destination group index (on TCP: the destination group's Lo
	// host id, which stays stable while bootstrap is still inserting
	// groups and shifting indices), From the encoded message count, and
	// the body an opaque run of protocol-framed records the columnar
	// live path decodes straight into state columns.
	kindColumnarBatch
	// kindAnnounce and kindMembership are the TCP bootstrap control
	// frames: a joining process announces its [Lo,Hi) span and listen
	// address; the seed replies with the membership table it knows (or
	// a rejection when the span conflicts). See membership.go.
	kindAnnounce
	kindMembership
	// kindMultiBundle tags a multi-protocol bundle: named
	// Push-Sum-Revert masses plus an optional Count-Sketch-Reset
	// counter matrix, the paper's Figure 7 deployment in one datagram.
	kindMultiBundle
)

// appendEnvelope encodes header + payload for one cross-host message.
// Both the value payloads of Emit and the pointer payloads of
// EmitAppend are accepted; an unknown payload type is an error (the
// caller counts it as a drop).
func appendEnvelope(dst []byte, from, to gossip.NodeID, tick int, payload any) ([]byte, error) {
	hdr := func(kind uint8) wire.Header {
		return wire.Header{Kind: kind, To: int32(to), From: int32(from), Tick: int32(tick)}
	}
	switch p := payload.(type) {
	case pushsumrevert.Mass:
		dst = wire.AppendHeader(dst, hdr(kindRevertMass))
		return wire.AppendMass(dst, p.W, p.V), nil
	case *pushsumrevert.Mass:
		dst = wire.AppendHeader(dst, hdr(kindRevertMass))
		return wire.AppendMass(dst, p.W, p.V), nil
	case moments.Mass:
		dst = wire.AppendHeader(dst, hdr(kindMomentsMass))
		return wire.AppendMass3(dst, p.W, p.V, p.Q), nil
	case *moments.Mass:
		dst = wire.AppendHeader(dst, hdr(kindMomentsMass))
		return wire.AppendMass3(dst, p.W, p.V, p.Q), nil
	case []uint8:
		dst = wire.AppendHeader(dst, hdr(kindResetCounters))
		return wire.AppendCounters(dst, p), nil
	case *sketchreset.Counters:
		dst = wire.AppendHeader(dst, hdr(kindResetCounters))
		return wire.AppendCounters(dst, p.Ages), nil
	case *sketch.Sketch:
		// The bin words alone don't determine the sketch shape, so the
		// level count rides along ahead of them.
		dst = wire.AppendHeader(dst, hdr(kindSketchBits))
		dst = binary.AppendUvarint(dst, uint64(p.Params().Levels))
		return wire.AppendSketchBits(dst, p.Bits()), nil
	case []extremes.Candidate:
		dst = wire.AppendHeader(dst, hdr(kindCandidates))
		return appendCandidates(dst, p), nil
	case *extremes.Table:
		dst = wire.AppendHeader(dst, hdr(kindCandidates))
		return appendCandidates(dst, p.Candidates), nil
	case multi.Bundle:
		return multi.AppendBundle(wire.AppendHeader(dst, hdr(kindMultiBundle)), &p)
	case *multi.Bundle:
		return multi.AppendBundle(wire.AppendHeader(dst, hdr(kindMultiBundle)), p)
	default:
		return nil, fmt.Errorf("transport: no wire encoding for payload %T", payload)
	}
}

func appendCandidates(dst []byte, cands []extremes.Candidate) []byte {
	wc := make([]wire.Candidate, len(cands))
	for i, c := range cands {
		wc[i] = wire.Candidate{Value: c.Value, Owner: int32(c.Owner), Age: int32(c.Age)}
	}
	return wire.AppendCandidates(dst, wc)
}

// decodeEnvelope parses one datagram into its header and a payload
// value of a Go type the protocol's Receive accepts: the type Emit
// produces, except that the two payloads carrying a counter matrix are
// validated and handed over still packed (sketchreset.Packed,
// multi.Packed) for Receive to fold straight off the wire bytes.
func decodeEnvelope(src []byte) (wire.Header, any, error) {
	h, rest, err := wire.DecodeHeader(src)
	if err != nil {
		return wire.Header{}, nil, err
	}
	return decodePayload(h, rest)
}

// decodePayload decodes the post-header bytes of a per-host datagram
// (the reader peels the header first so batch datagrams can bypass
// payload boxing entirely).
func decodePayload(h wire.Header, rest []byte) (wire.Header, any, error) {
	switch h.Kind {
	case kindRevertMass:
		w, v, _, err := wire.DecodeMass(rest)
		if err != nil {
			return wire.Header{}, nil, err
		}
		return h, pushsumrevert.Mass{W: w, V: v}, nil
	case kindMomentsMass:
		w, v, q, _, err := wire.DecodeMass3(rest)
		if err != nil {
			return wire.Header{}, nil, err
		}
		return h, moments.Mass{W: w, V: v, Q: q}, nil
	case kindResetCounters:
		p, err := sketchreset.NewPacked(rest)
		if err != nil {
			return wire.Header{}, nil, err
		}
		return h, p, nil
	case kindSketchBits:
		// The uint64→int narrowing below must not wrap before
		// Params.Validate (the authority on sketch shape) sees the value.
		levels, n := binary.Uvarint(rest)
		if n <= 0 || levels > sketch.MaxLevels {
			return wire.Header{}, nil, fmt.Errorf("transport: sketch datagram: bad level count")
		}
		bits, _, err := wire.DecodeSketchBits(rest[n:])
		if err != nil {
			return wire.Header{}, nil, err
		}
		params := sketch.Params{Bins: len(bits), Levels: int(levels)}
		if err := params.Validate(); err != nil {
			return wire.Header{}, nil, fmt.Errorf("transport: sketch datagram: %w", err)
		}
		s := sketch.New(params)
		s.LoadBits(bits)
		return h, s, nil
	case kindCandidates:
		wc, _, err := wire.DecodeCandidates(rest)
		if err != nil {
			return wire.Header{}, nil, err
		}
		cands := make([]extremes.Candidate, len(wc))
		for i, c := range wc {
			cands[i] = extremes.Candidate{Value: c.Value, Owner: gossip.NodeID(c.Owner), Age: int(c.Age)}
		}
		return h, cands, nil
	case kindMultiBundle:
		p, err := multi.NewPacked(rest)
		if err != nil {
			return wire.Header{}, nil, err
		}
		return h, p, nil
	default:
		return wire.Header{}, nil, fmt.Errorf("transport: unknown payload kind %d", h.Kind)
	}
}
