package transport

import (
	"fmt"

	"dynagg/internal/gossip"
	"dynagg/internal/protocol/multi"
	"dynagg/internal/protocol/pushsumrevert"
	"dynagg/internal/protocol/sketchreset"
	"dynagg/internal/wire"
)

// Protocol kind tags carried in the envelope header so a datagram is
// self-describing: the receiver needs no out-of-band agreement about
// which protocol is running to decode (or reject) a payload.
//
// Kinds 2 and 4 belong to the protocols: a Push-Sum-Revert mass is
// pushsumrevert.WireKindRevert and a Count-Sketch-Reset counter matrix
// is sketchreset.WireKindSketchReset, the numbers their records carry
// in columnar batches too.
//
// Kinds 1, 3, 5 and 6 are retired, not reused: an envelope of any of
// them decodes as unknown, and the other kinds keep their numbers.
// Kind 1 tagged plain Push-Sum mass before Push-Sum became
// Push-Sum-Revert at λ = 0; kind 3 tagged moments (w, v, q) masses,
// whose number and bytes live on as pushsumrevert.WireKindMoments in
// columnar batches; kinds 5 and 6 tagged sketch bit vectors and
// extremes candidate tables, which no live path sent.
const (
	_ uint8 = iota + 1
	_       // pushsumrevert.WireKindRevert
	_
	_ // sketchreset.WireKindSketchReset
	_
	_
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

// appendEnvelope encodes header + payload for one cross-host message:
// an Emit payload, or a Push-Sum-Revert Mass value. An unknown payload
// type is an error (the caller counts it as a drop).
func appendEnvelope(dst []byte, from, to gossip.NodeID, tick int, payload any) ([]byte, error) {
	hdr := func(kind uint8) wire.Header {
		return wire.Header{Kind: kind, To: int32(to), From: int32(from), Tick: int32(tick)}
	}
	switch p := payload.(type) {
	case pushsumrevert.Mass:
		dst = wire.AppendHeader(dst, hdr(pushsumrevert.WireKindRevert))
		return wire.AppendMass(dst, p.W, p.V), nil
	case *pushsumrevert.Mass:
		dst = wire.AppendHeader(dst, hdr(pushsumrevert.WireKindRevert))
		return wire.AppendMass(dst, p.W, p.V), nil
	case *sketchreset.Counters:
		dst = wire.AppendHeader(dst, hdr(sketchreset.WireKindSketchReset))
		return wire.AppendCounters(dst, p.Ages), nil
	case multi.Bundle:
		return multi.AppendBundle(wire.AppendHeader(dst, hdr(kindMultiBundle)), &p)
	case *multi.Bundle:
		return multi.AppendBundle(wire.AppendHeader(dst, hdr(kindMultiBundle)), p)
	default:
		return nil, fmt.Errorf("transport: no wire encoding for payload %T", payload)
	}
}

// decodeEnvelope parses one datagram into its header and a payload of
// a Go type the protocol's Receive accepts: a mass as a
// pushsumrevert.Mass value, and the two payloads carrying a counter
// matrix validated and handed over still packed (sketchreset.Packed,
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
	case pushsumrevert.WireKindRevert:
		w, v, _, err := wire.DecodeMass(rest)
		if err != nil {
			return wire.Header{}, nil, err
		}
		return h, pushsumrevert.Mass{W: w, V: v}, nil
	case sketchreset.WireKindSketchReset:
		p, err := sketchreset.NewPacked(rest)
		if err != nil {
			return wire.Header{}, nil, err
		}
		return h, p, nil
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
