// Package moments extends Push-Sum-Revert to the second moment,
// yielding dynamic estimates of the network-wide variance and standard
// deviation — aggregates the paper names among its motivating examples
// (§II: "Examples of aggregates include the sum, count, average, and
// standard deviation").
//
// The construction is the standard moments trick on top of the paper's
// machinery: each host gossips a three-component mass (w, v, q) with
// q initialized to v₀². Every component obeys conservation of mass and
// decays toward its initial value by the same reversion constant λ, so
// the whole vector inherits Push-Sum-Revert's self-healing. At
// convergence
//
//	v/w → E[x]    q/w → E[x²]    Var = q/w − (v/w)²
//
// over the hosts currently participating.
package moments

import (
	"fmt"
	"math"

	"dynagg/internal/gossip"
	"dynagg/internal/xrand"
)

// Mass is the gossiped (weight, value, square) vector.
type Mass struct {
	W float64
	V float64
	Q float64
}

// Config parametrizes a moments host.
type Config struct {
	// Lambda is the reversion constant λ ∈ [0, 1]; zero gives the
	// static protocol.
	Lambda float64
	// PushPull declares that the engine drives the node with pairwise
	// exchanges; the reversion then applies once per round at round
	// end.
	PushPull bool
}

// Node is one dynamic-variance host.
type Node struct {
	id  gossip.NodeID
	cfg Config
	v0  float64
	q0  float64

	w, v, q float64

	inW, inV, inQ float64

	// out is the scratch payload referenced by EmitAppend envelopes.
	out Mass
}

var (
	_ gossip.Agent         = (*Node)(nil)
	_ gossip.Exchanger     = (*Node)(nil)
	_ gossip.AppendEmitter = (*Node)(nil)
)

// New returns a moments host with data value v0.
func New(id gossip.NodeID, v0 float64, cfg Config) *Node {
	if cfg.Lambda < 0 || cfg.Lambda > 1 {
		panic("moments: Lambda outside [0,1]")
	}
	return &Node{id: id, cfg: cfg, v0: v0, q0: v0 * v0, w: 1, v: v0, q: v0 * v0}
}

// ID returns the host id.
func (n *Node) ID() gossip.NodeID { return n.id }

// Mass returns the current mass vector.
func (n *Node) Mass() Mass { return Mass{W: n.w, V: n.v, Q: n.q} }

// BeginRound implements gossip.Agent.
func (n *Node) BeginRound(round int) {
	n.inW, n.inV, n.inQ = 0, 0, 0
}

// Emit implements gossip.Agent: EmitAppend with every payload detached
// from the host's scratch into an independent Mass value.
func (n *Node) Emit(round int, rng *xrand.Rand, pick gossip.PeerPicker) []gossip.Envelope {
	out := n.EmitAppend(nil, round, rng, pick)
	for i := range out {
		out[i].Payload = *out[i].Payload.(*Mass)
	}
	return out
}

// EmitAppend implements gossip.AppendEmitter: the reverted mass is
// split between a random peer and self, exactly as in Push-Sum-Revert,
// with q treated like v but decaying toward v₀². Payloads are
// round-scoped, pointing at per-host scratch.
func (n *Node) EmitAppend(dst []gossip.Envelope, round int, rng *xrand.Rand, pick gossip.PeerPicker) []gossip.Envelope {
	λ := n.cfg.Lambda
	half := Mass{
		W: ((1-λ)*n.w + λ) / 2,
		V: ((1-λ)*n.v + λ*n.v0) / 2,
		Q: ((1-λ)*n.q + λ*n.q0) / 2,
	}
	peer, ok := pick()
	if !ok {
		n.out = Mass{W: 2 * half.W, V: 2 * half.V, Q: 2 * half.Q}
		return append(dst, gossip.Envelope{To: n.id, Payload: &n.out})
	}
	n.out = half
	return append(dst,
		gossip.Envelope{To: peer, Payload: &n.out},
		gossip.Envelope{To: n.id, Payload: &n.out},
	)
}

// Receive implements gossip.Agent. Both the boxed Mass of Emit and
// the scratch-backed *Mass of EmitAppend are accepted.
func (n *Node) Receive(payload any) {
	var m Mass
	switch p := payload.(type) {
	case *Mass:
		m = *p
	case Mass:
		m = p
	default:
		panic(fmt.Sprintf("moments: unexpected payload %T", payload))
	}
	n.inW += m.W
	n.inV += m.V
	n.inQ += m.Q
}

// EndRound implements gossip.Agent.
func (n *Node) EndRound(round int) {
	if n.cfg.PushPull {
		λ := n.cfg.Lambda
		n.w = λ + (1-λ)*n.w
		n.v = λ*n.v0 + (1-λ)*n.v
		n.q = λ*n.q0 + (1-λ)*n.q
		return
	}
	n.w, n.v, n.q = n.inW, n.inV, n.inQ
}

// Exchange implements gossip.Exchanger: pairwise mass averaging of all
// three components.
func (n *Node) Exchange(peer gossip.Exchanger) {
	p := peer.(*Node)
	mw := (n.w + p.w) / 2
	mv := (n.v + p.v) / 2
	mq := (n.q + p.q) / 2
	n.w, p.w = mw, mw
	n.v, p.v = mv, mv
	n.q, p.q = mq, mq
}

// Mean returns the host's running estimate of the network average.
func (n *Node) Mean() (float64, bool) {
	if n.w <= 1e-12 {
		return 0, false
	}
	return n.v / n.w, true
}

// Variance returns the host's running estimate of the network variance,
// clamped at zero (transient states can drive the raw moment estimate
// slightly negative).
func (n *Node) Variance() (float64, bool) {
	if n.w <= 1e-12 {
		return 0, false
	}
	mean := n.v / n.w
	variance := n.q/n.w - mean*mean
	if variance < 0 {
		variance = 0
	}
	return variance, true
}

// StdDev returns the host's running estimate of the network standard
// deviation.
func (n *Node) StdDev() (float64, bool) {
	v, ok := n.Variance()
	if !ok {
		return 0, false
	}
	return math.Sqrt(v), true
}

// Estimate implements gossip.Agent, reporting the standard deviation
// (the headline aggregate of this package).
func (n *Node) Estimate() (float64, bool) { return n.StdDev() }
