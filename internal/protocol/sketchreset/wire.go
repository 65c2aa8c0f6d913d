package sketchreset

import (
	"dynagg/internal/gossip"
	"dynagg/internal/wire"
)

// A socket transport hands Receive a KindCounters envelope still
// packed.
func init() { wire.Register(wire.KindCounters, NewPacked) }

// AppendEnvelope implements wire.Payload: a KindCounters envelope, the
// matrix run-length encoded after the header.
func (c *Counters) AppendEnvelope(dst []byte, h wire.Header) ([]byte, error) {
	h.Kind = wire.KindCounters
	return wire.AppendCounters(wire.AppendHeader(dst, h), c.Ages), nil
}

// WireKind implements the live engine's ColumnarProtocol wire hooks.
func (c *Columnar) WireKind() uint8 { return wire.KindCounters }

// AppendWire appends message m's payload: the run-length encoding of
// the emitter's start-of-round age matrix. In-process columnar runs
// carry no payload at all (Deliver reads the shadow block directly),
// but across a transport the matrix must travel — this is the classic
// path's snapshot payload, RLE'd per the paper's §IV-B sizes.
//
// The read of shadow[m.From] is only valid in the emitting shard's own
// tick, immediately after EmitRange snapshotted it — exactly when the
// live engine calls AppendWire.
func (c *Columnar) AppendWire(dst []byte, m gossip.ColMsg) []byte {
	return wire.AppendCounters(dst, c.snapshot(int(m.From)))
}

// DeliverWire min-merges one received matrix straight into host to's
// live block — wire.DecodeCountersMin is Deliver's min-merge with the
// wire as the source, no intermediate matrix. to's owned indices are
// pinned to zero and a min can never raise them, so no re-pin is
// needed; a record delayed in flight carries ages a few ticks stale,
// which only weakens its min contribution (the same grace the classic
// queue gives payloads).
func (c *Columnar) DeliverWire(to gossip.NodeID, src []byte) ([]byte, error) {
	return wire.DecodeCountersMin(c.block(int(to)), src)
}

// MaxWireCounters bounds the counter matrix a datagram may carry (the
// paper's sketches are 64×24 = 1536 counters; this leaves two orders
// of magnitude of headroom without letting a hostile datagram claim an
// absurd shape).
const MaxWireCounters = 1 << 16

// Packed is a counter matrix still in its run-length wire form: what a
// socket transport delivers to Node.Receive in place of a materialised
// []uint8. NewPacked is the only way to build one, so the bytes inside
// are always a structurally valid encoding; they are read-only from
// then on and Receive folds them without keeping a reference.
type Packed struct {
	rle []byte
}

// NewPacked validates the run-length encoding at the start of src
// (wire.ValidateCounters, sizes up to MaxWireCounters) and returns a
// payload holding its own copy of it.
func NewPacked(src []byte) (*Packed, error) {
	_, rest, err := wire.ValidateCounters(src, MaxWireCounters)
	if err != nil {
		return nil, err
	}
	return &Packed{rle: append([]byte(nil), src[:len(src)-len(rest)]...)}, nil
}

// MergeWire min-merges a run-length-encoded matrix straight into the
// host's own — minMerge with the wire as the source. The encoding must
// have been validated (a Packed payload, or a bundle that embeds one);
// a matrix of another shape is ignored whole, like minMerge's.
func (n *Node) MergeWire(rle []byte) {
	// The host's owned indices are pinned to zero and a min can never
	// raise them, so no re-pin is needed. The error is the shape
	// mismatch, reported before anything is merged.
	_, _ = wire.DecodeCountersMin(n.counters, rle)
}
