// Package sketchcount implements Considine et al.'s static Sketch-Count
// protocol (the paper's Figure 2): hosts gossip FM counting sketches
// and OR-merge everything they receive. Because the sketch is
// duplicate-insensitive, redundant delivery is harmless and the
// network size can be estimated at every host.
//
// The package is the classic per-host form only. A static count or sum
// on the columnar backend is Count-Sketch-Reset read with an infinite
// cutoff (sketchreset.Config.NoDecay), which gossips the same thing.
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
	s *sketch.Sketch

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
	n := &Node{s: sketch.New(p)}
	n.s.Insert(uint64(id) + 1)
	return n
}

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
	return n.s.Estimate(), true
}
