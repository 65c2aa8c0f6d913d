package pushsumrevert

import (
	"dynagg/internal/gossip"
	"dynagg/internal/wire"
)

// WireKindRevert tags Push-Sum-Revert records in live columnar
// batches.
const WireKindRevert uint8 = 2

// WireKind implements the live engine's ColumnarProtocol wire hooks.
func (c *Columnar) WireKind() uint8 { return WireKindRevert }

// AppendWire appends message m's payload — its (w, v) mass, 16 fixed
// bytes. All variants put plain mass on the wire; the Adaptive
// variant's damping happens on receipt, indexed by the destination.
func (c *Columnar) AppendWire(dst []byte, m gossip.ColMsg) []byte {
	return wire.AppendMass(dst, m.Mass.W, m.Mass.V)
}

// DeliverWire folds one received mass into host to's inbox columns via
// the variant-aware deliverMsg (Adaptive reversion reads only the
// destination's own initial-mass columns, so the fold is safe across
// tick and process boundaries).
func (c *Columnar) DeliverWire(to gossip.NodeID, src []byte) ([]byte, error) {
	w, v, rest, err := wire.DecodeMass(src)
	if err != nil {
		return nil, err
	}
	c.deliverMsg(gossip.ColMsg{To: to, Mass: gossip.Mass{W: w, V: v}})
	return rest, nil
}
