package transport

import (
	"fmt"

	"dynagg/internal/gossip"
	"dynagg/internal/wire"
)

// The transport's own envelope kinds, numbered in wire's kind table: a
// columnar batch datagram (wire.KindBatch) and the TCP bootstrap
// control frames (membership.go). Every other kind is a protocol's
// payload, encoded by the payload itself (wire.Payload) and decoded by
// the decoder its package registered (wire.Register), so this package
// imports no protocol.
const (
	kindColumnarBatch = wire.KindBatch
	kindAnnounce      = wire.KindAnnounce
	kindMembership    = wire.KindMembership
)

// appendEnvelope encodes header + payload for one cross-host message.
// A payload with no wire form is an error (the caller counts it as a
// drop).
func appendEnvelope(dst []byte, from, to gossip.NodeID, tick int, payload any) ([]byte, error) {
	p, ok := payload.(wire.Payload)
	if !ok {
		return nil, fmt.Errorf("transport: no wire encoding for payload %T", payload)
	}
	return p.AppendEnvelope(dst, wire.Header{To: int32(to), From: int32(from), Tick: int32(tick)})
}
