// Package pushsum implements Kempe, Dobra and Gehrke's Push-Sum
// protocol (FOCS'03), the static distributed-averaging baseline the
// paper extends (its Figure 1).
//
// Every host carries a mass vector (w, v). Each round it sends half of
// its mass to one random peer and half to itself, then replaces its
// mass with the sum of everything it received; v/w converges to
// Σv/Σw. With w=1 everywhere and v the host's value, the estimate is
// the network average; with v=1 everywhere and w=1 only at an
// initiator, it is the network size; with w=1 only at an initiator, it
// is the sum.
//
// The protocol relies on conservation of mass: exchanges are zero-sum,
// so the network-wide Σv and Σw never change — which is exactly what
// breaks under silent departures, motivating Push-Sum-Revert.
//
// The package also implements the push/pull exchange variant (Karp et
// al.): pairs average their mass vectors atomically, roughly halving
// convergence time.
package pushsum

import (
	"fmt"

	"dynagg/internal/gossip"
	"dynagg/internal/xrand"
)

// Mass is the (weight, value) vector gossiped by Push-Sum.
type Mass struct {
	W float64
	V float64
}

// Node is one Push-Sum host.
type Node struct {
	id     gossip.NodeID
	w0, v0 float64 // construction-time mass, the Reset target
	w, v   float64

	inW, inV float64
	received bool

	// out is the scratch payload referenced by EmitAppend envelopes;
	// it is rewritten each round after the previous round's messages
	// have been delivered.
	out Mass

	est    float64
	hasEst bool
}

var (
	_ gossip.Agent         = (*Node)(nil)
	_ gossip.Exchanger     = (*Node)(nil)
	_ gossip.AppendEmitter = (*Node)(nil)
)

// New returns a Push-Sum host with initial value v0 and weight w0.
func New(id gossip.NodeID, v0, w0 float64) *Node {
	n := &Node{id: id, w0: w0, v0: v0, w: w0, v: v0}
	n.refreshEstimate()
	return n
}

// Reset restores the host to its freshly-constructed state: all
// accumulated gossip mass is discarded and the construction-time mass
// re-sourced. It models a crashed process restarting from its local
// data value — the round-engine twin of the live cluster's
// kill-and-Replace choreography.
func (n *Node) Reset() {
	n.w, n.v = n.w0, n.v0
	n.inW, n.inV = 0, 0
	n.received = false
	n.out = Mass{}
	n.hasEst = false
	n.refreshEstimate()
}

// NewAverage returns a host configured for network averaging: weight 1
// and the host's data value.
func NewAverage(id gossip.NodeID, value float64) *Node {
	return New(id, value, 1)
}

// NewCount returns a host configured for network-size estimation:
// value 1 everywhere, weight 1 only at the initiator.
func NewCount(id gossip.NodeID, initiator bool) *Node {
	w := 0.0
	if initiator {
		w = 1
	}
	return New(id, 1, w)
}

// NewSum returns a host configured for summation: the host's value
// everywhere, weight 1 only at the initiator.
func NewSum(id gossip.NodeID, value float64, initiator bool) *Node {
	w := 0.0
	if initiator {
		w = 1
	}
	return New(id, value, w)
}

// ID returns the host id.
func (n *Node) ID() gossip.NodeID { return n.id }

// Mass returns the host's current mass vector.
func (n *Node) Mass() Mass { return Mass{W: n.w, V: n.v} }

// BeginRound implements gossip.Agent.
func (n *Node) BeginRound(round int) {
	n.inW, n.inV = 0, 0
	n.received = false
}

// Emit implements gossip.Agent: half the mass to a random peer, half
// to self (Figure 1 steps 1-2). It is EmitAppend with every payload
// detached from the host's scratch into an independent Mass value, safe
// for asynchronous delivery (the live engine's contract).
func (n *Node) Emit(round int, rng *xrand.Rand, pick gossip.PeerPicker) []gossip.Envelope {
	out := n.EmitAppend(nil, round, rng, pick)
	for i := range out {
		out[i].Payload = *out[i].Payload.(*Mass)
	}
	return out
}

// EmitAppend implements gossip.AppendEmitter, with round-scoped
// payloads pointing at per-host scratch, so the steady state performs
// no heap allocation at all.
func (n *Node) EmitAppend(dst []gossip.Envelope, round int, rng *xrand.Rand, pick gossip.PeerPicker) []gossip.Envelope {
	peer, ok := pick()
	if !ok {
		// Isolated host: all mass returns to self.
		n.out = Mass{W: n.w, V: n.v}
		return append(dst, gossip.Envelope{To: n.id, Payload: &n.out})
	}
	n.out = Mass{W: n.w / 2, V: n.v / 2}
	return append(dst,
		gossip.Envelope{To: peer, Payload: &n.out},
		gossip.Envelope{To: n.id, Payload: &n.out},
	)
}

// Receive implements gossip.Agent (Figure 1 step 3). Both the boxed
// Mass of Emit and the scratch-backed *Mass of EmitAppend are
// accepted.
func (n *Node) Receive(payload any) {
	var m Mass
	switch p := payload.(type) {
	case *Mass:
		m = *p
	case Mass:
		m = p
	default:
		panic(fmt.Sprintf("pushsum: unexpected payload %T", payload))
	}
	n.inW += m.W
	n.inV += m.V
	n.received = true
}

// EndRound implements gossip.Agent (Figure 1 steps 4-6). Under the
// push model a live host always receives at least its own message;
// under push/pull mass is updated in place by Exchange and no messages
// arrive, so the inbox is ignored.
func (n *Node) EndRound(round int) {
	if n.received {
		n.w, n.v = n.inW, n.inV
	}
	n.refreshEstimate()
}

// Exchange implements gossip.Exchanger: the push/pull half-difference
// transfer, after which both ends hold the mean of the two mass
// vectors. The exchange is zero-sum, preserving conservation of mass.
func (n *Node) Exchange(peer gossip.Exchanger) {
	p := peer.(*Node)
	mw := (n.w + p.w) / 2
	mv := (n.v + p.v) / 2
	n.w, p.w = mw, mw
	n.v, p.v = mv, mv
	n.refreshEstimate()
	p.refreshEstimate()
}

// Estimate implements gossip.Agent: v/w, once the weight is non-zero.
func (n *Node) Estimate() (float64, bool) { return n.est, n.hasEst }

func (n *Node) refreshEstimate() {
	if n.w > 1e-12 {
		n.est = n.v / n.w
		n.hasEst = true
	}
}
