package pushsumrevert

import (
	"dynagg/internal/gossip"
	"dynagg/internal/wire"
)

// A socket transport hands Receive a KindMass envelope as a Mass value.
func init() { wire.Register(wire.KindMass, decodeMass) }

func decodeMass(body []byte) (Mass, error) {
	w, v, _, err := wire.DecodeMass(body)
	return Mass{W: w, V: v}, err
}

// AppendEnvelope implements wire.Payload: a KindMass envelope, the
// mass's 16 bytes after the header. The value receiver lets Mass and
// *Mass both encode.
func (m Mass) AppendEnvelope(dst []byte, h wire.Header) ([]byte, error) {
	h.Kind = wire.KindMass
	return wire.AppendMass(wire.AppendHeader(dst, h), m.W, m.V), nil
}

// WireKind implements the live engine's ColumnarProtocol wire hooks:
// (w, v) records are wire.KindMass, a NewColumnarMoments population's
// (w, v, q) records wire.KindMoments.
func (c *Columnar) WireKind() uint8 {
	if c.moment != nil {
		return wire.KindMoments
	}
	return wire.KindMass
}

// AppendWire appends message m's payload — its (w, v) mass, 16 fixed
// bytes, or 24 with a moments population's q read from m.From's outQ.
// All variants put plain mass on the wire; the Adaptive variant's
// damping happens on receipt, indexed by the destination.
func (c *Columnar) AppendWire(dst []byte, m gossip.ColMsg) []byte {
	if c.moment != nil {
		return wire.AppendMass3(dst, m.Mass.W, m.Mass.V, c.outQ[m.From])
	}
	return wire.AppendMass(dst, m.Mass.W, m.Mass.V)
}

// DeliverWire folds one received mass into host to's inbox (the
// Adaptive fold reads only the destination's own columns, so it is safe
// across tick and process boundaries).
func (c *Columnar) DeliverWire(to gossip.NodeID, src []byte) ([]byte, error) {
	if c.moment != nil {
		w, v, q, rest, err := wire.DecodeMass3(src)
		if err == nil {
			c.receive(to, gossip.Mass{W: w, V: v}, q)
		}
		return rest, err
	}
	w, v, rest, err := wire.DecodeMass(src)
	if err == nil {
		c.receive(to, gossip.Mass{W: w, V: v}, 0)
	}
	return rest, err
}
