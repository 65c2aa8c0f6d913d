// Package sketchcount implements Considine et al.'s static Sketch-Count
// protocol (the paper's Figure 2): hosts gossip FM counting sketches
// and OR-merge everything they receive. Because the sketch is
// duplicate-insensitive, redundant delivery is harmless and the
// network size (or a sum, via multiple insertions) can be estimated at
// every host.
//
// The protocol's weakness — and the motivation for Count-Sketch-Reset
// — is that bits only ever turn on: once a departed host's identifier
// bit has spread, no surviving host can tell whether another live host
// still sources it, so the estimate can only grow ("the estimate
// increases monotonically").
package sketchcount

import (
	"dynagg/internal/gossip"
	"dynagg/internal/sketch"
	"dynagg/internal/xrand"
)

// Node is one Sketch-Count host.
type Node struct {
	id    gossip.NodeID
	s     *sketch.Sketch
	scale float64 // identifiers inserted per unit of reported value

	// snap is the reusable snapshot sent by EmitAppend: a copy of the
	// sketch taken at emission time, so receivers merging on arrival
	// never observe this host's mid-round merges. Allocated lazily on
	// the first EmitAppend and reused every round after.
	snap *sketch.Sketch
}

var (
	_ gossip.Agent         = (*Node)(nil)
	_ gossip.Exchanger     = (*Node)(nil)
	_ gossip.AppendEmitter = (*Node)(nil)
)

// NewCount returns a host that contributes a single identifier, so the
// converged estimate is the network size.
func NewCount(id gossip.NodeID, p sketch.Params) *Node {
	n := &Node{id: id, s: sketch.New(p), scale: 1}
	n.s.Insert(uint64(id) + 1)
	return n
}

// NewCountScaled returns a host that contributes c identifiers and
// divides its estimate by c. Using c > 1 raises R without changing
// propagation time, sharpening estimates on very small networks (the
// paper uses c=100 for the trace runs).
func NewCountScaled(id gossip.NodeID, p sketch.Params, c int) *Node {
	n := &Node{id: id, s: sketch.New(p), scale: float64(c)}
	n.s.InsertValue(uint64(id)+1, c)
	return n
}

// NewSum returns a host that contributes value identifiers (the
// multiple-insertions summation of §IV-B), so the converged estimate
// is the network-wide sum.
func NewSum(id gossip.NodeID, p sketch.Params, value int) *Node {
	n := &Node{id: id, s: sketch.New(p), scale: 1}
	n.s.InsertValue(uint64(id)+1, value)
	return n
}

// ID returns the host id.
func (n *Node) ID() gossip.NodeID { return n.id }

// Sketch exposes the host's current sketch (shared, not copied).
func (n *Node) Sketch() *sketch.Sketch { return n.s }

// BeginRound implements gossip.Agent.
func (n *Node) BeginRound(round int) {}

// Emit implements gossip.Agent: EmitAppend onto a fresh slice.
func (n *Node) Emit(round int, rng *xrand.Rand, pick gossip.PeerPicker) []gossip.Envelope {
	return n.EmitAppend(nil, round, rng, pick)
}

// EmitAppend implements gossip.AppendEmitter: the whole sketch goes to
// one random peer. (Figure 2 also sends to self; ORing a sketch into
// itself is the identity, so the self-copy is elided.) The snapshot is
// copied into a per-host buffer reused across rounds — zero
// steady-state allocation.
func (n *Node) EmitAppend(dst []gossip.Envelope, round int, rng *xrand.Rand, pick gossip.PeerPicker) []gossip.Envelope {
	peer, ok := pick()
	if !ok {
		return dst
	}
	if n.snap == nil {
		n.snap = sketch.New(n.s.Params())
	}
	n.snap.CopyFrom(n.s)
	return append(dst, gossip.Envelope{To: peer, Payload: n.snap})
}

// Receive implements gossip.Agent. OR-merging immediately is safe:
// the engine delivers only after all hosts have emitted, and the merge
// is order-insensitive and idempotent. A payload other than a sketch
// of this host's shape is ignored (see gossip.Agent).
func (n *Node) Receive(payload any) {
	if s, ok := payload.(*sketch.Sketch); ok && s.Params() == n.s.Params() {
		n.s.Merge(s)
	}
}

// EndRound implements gossip.Agent.
func (n *Node) EndRound(round int) {}

// Exchange implements gossip.Exchanger: mutual OR-merge, after which
// both sketches are identical.
func (n *Node) Exchange(peer gossip.Exchanger) {
	p := peer.(*Node)
	n.s.Merge(p.s)
	p.s.Merge(n.s)
}

// Estimate implements gossip.Agent.
func (n *Node) Estimate() (float64, bool) {
	return n.s.Estimate() / n.scale, true
}
