package pushsumrevert

import (
	"dynagg/internal/gossip"
	"dynagg/internal/wire"
)

// WireKindRevert and WireKindMoments tag Push-Sum-Revert records in
// live columnar batches: (w, v) masses, and (w, v, q) masses of a
// NewColumnarMoments population.
const (
	WireKindRevert  uint8 = 2
	WireKindMoments uint8 = 3
)

// WireKind implements the live engine's ColumnarProtocol wire hooks.
func (c *Columnar) WireKind() uint8 {
	if c.moment != nil {
		return WireKindMoments
	}
	return WireKindRevert
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
