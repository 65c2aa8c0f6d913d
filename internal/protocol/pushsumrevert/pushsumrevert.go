// Package pushsumrevert implements the paper's first contribution:
// Push-Sum-Revert (§III), a dynamic distributed-averaging protocol
// that maintains a running estimate under silent host departures.
//
// After every gossip exchange, each host decays its mass vector toward
// its initial mass by a reversion constant λ:
//
//	w ← λ·1  + (1−λ)·Σŵ
//	v ← λ·v₀ + (1−λ)·Σv̂
//
// With a static node set the Revert step conserves mass exactly (§III
// proves Σ revert(vᵢ) = Σ vᵢ), so the protocol behaves like Push-Sum.
// When hosts vanish and take mass with them, the reversion regenerates
// mass from the survivors' initial values, pulling the system back to
// the true average of the *remaining* hosts. Larger λ reconverges
// faster but leaves a larger steady-state error (Figure 10a).
//
// Three optimizations from §III-A are implemented:
//
//   - Full-Transfer: a host exports its entire mass each round as N
//     parcels to independently chosen peers and estimates from the sum
//     of the last T rounds in which it received mass. Removing the
//     retained self-share removes the estimate's bias toward the local
//     initial value (Figure 10b).
//   - Push/pull exchange: pairwise mass averaging (Karp et al.),
//     roughly halving initial convergence; λ reversion is applied once
//     per round at round end.
//   - Adaptive λ: instead of a fixed λ once per round, add λ/2 of the
//     initial mass per message received (including the self message).
//     Hosts with high indegree — which receive extra mass that works
//     against reversion — revert proportionally harder; expected total
//     reversion stays λ per round.
//
// NewMoments and NewColumnarMoments add a second value q under the same
// weight, with q₀ = w₀·v₀², which yields the variance and standard
// deviation:
//
//	v/w → E[x]    q/w → E[x²]    Var = q/w − (v/w)²
package pushsumrevert

import (
	"fmt"

	"dynagg/internal/gossip"
	"dynagg/internal/xrand"
)

// Mass is the gossiped (weight, value) vector.
type Mass struct {
	W float64
	V float64
}

// Detach implements gossip.Detacher: a copy of the emitter's scratch.
func (m *Mass) Detach() any { c := *m; return &c }

// Config selects the protocol variant.
type Config struct {
	// Lambda is the reversion constant λ ∈ [0, 1]. Zero reproduces
	// static Push-Sum exactly.
	Lambda float64
	// Weight is the host's initial weight w₀; zero means 1. With
	// non-uniform weights the network converges on the weighted
	// average Σwᵢvᵢ/Σwᵢ (Kempe et al.'s weighted averaging, which the
	// paper builds on), and the reversion decays toward (w₀, w₀·v₀)
	// so the weighting survives departures.
	Weight float64
	// FullTransfer enables the §III-A optimization: export all mass
	// each round in Parcels parcels and estimate over a Window of
	// recent rounds.
	FullTransfer bool
	// Parcels is the number of mass parcels N under Full-Transfer
	// (the paper's Figure 10b uses 4). Ignored otherwise.
	Parcels int
	// Window is the number of recent mass-bearing rounds T averaged
	// into the estimate under Full-Transfer (the paper uses 3).
	Window int
	// Adaptive enables indegree-scaled reversion (push model only).
	Adaptive bool
	// PushPull declares that the node will be driven by the engine's
	// push/pull model (pairwise Exchange calls) rather than push
	// emission. The reversion step then runs once per round at round
	// end. Figures 8 and 10a use this mode.
	PushPull bool
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Lambda < 0 || c.Lambda > 1 {
		return fmt.Errorf("pushsumrevert: Lambda %v outside [0,1]", c.Lambda)
	}
	if c.Weight < 0 {
		return fmt.Errorf("pushsumrevert: negative Weight %v", c.Weight)
	}
	if c.FullTransfer {
		if c.Parcels < 1 {
			return fmt.Errorf("pushsumrevert: FullTransfer needs Parcels >= 1, got %d", c.Parcels)
		}
		if c.Window < 1 {
			return fmt.Errorf("pushsumrevert: FullTransfer needs Window >= 1, got %d", c.Window)
		}
		if c.Adaptive {
			return fmt.Errorf("pushsumrevert: FullTransfer and Adaptive are mutually exclusive")
		}
		if c.PushPull {
			return fmt.Errorf("pushsumrevert: FullTransfer and PushPull are mutually exclusive")
		}
	}
	if c.Adaptive && c.PushPull {
		return fmt.Errorf("pushsumrevert: Adaptive and PushPull are mutually exclusive")
	}
	return nil
}

// Node is one Push-Sum-Revert host: one host's columns, on which its
// methods call a Columnar's per-host steps at index 0. It adds the peer
// picks, the envelopes and out, the scratch they point at (&out.Mass,
// or &out for a moments host).
type Node struct {
	c   hosts[[1]float64, [1]int32, [1]bool]
	id  gossip.NodeID
	out MomentsMass
}

var (
	_ gossip.Agent         = (*Node)(nil)
	_ gossip.Exchanger     = (*Node)(nil)
	_ gossip.AppendEmitter = (*Node)(nil)
)

// New returns a Push-Sum-Revert host with data value v0.
func New(id gossip.NodeID, v0 float64, cfg Config) *Node {
	return newNode(id, v0, weight(cfg), cfg, false)
}

func newNode(id gossip.NodeID, v0, w0 float64, cfg Config, moments bool) *Node {
	n := &Node{id: id}
	n.c.init([]float64{v0}, w0, cfg, moments)
	return n
}

// NewObserver returns a zero-weight Push-Sum-Revert host: w₀ = 0 and
// v₀·w₀ = 0, so the host contributes no mass of its own and its
// reversion target is empty. It still receives, holds, and forwards
// mass like any other host, which makes its local v/w ratio converge
// to the population average without perturbing it — the read-only
// participant a query gateway needs. Its estimate stays invalid until
// the first mass actually arrives (w > 0), so callers can distinguish
// "not yet converged" from a real value.
//
// Reverting toward zero mass, an observer destroys a λ fraction of the
// mass it holds each round, which the population's own reversion
// regenerates, as after a silent departure (§III).
func NewObserver(id gossip.NodeID, cfg Config) *Node {
	cfg.Weight = 0
	return newNode(id, 0, 0, cfg, false)
}

// Reset restores the host to its freshly built state (Columnar.Reset),
// the round engine's twin of the live cluster's kill-and-Replace.
func (n *Node) Reset() { n.c.Reset(0) }

// ID returns the host id.
func (n *Node) ID() gossip.NodeID { return n.id }

// Value returns the host's initial data value v₀.
func (n *Node) Value() float64 { return n.c.v0[0] }

// Weight returns the host's initial weight w₀.
func (n *Node) Weight() float64 { return n.c.w0 }

// Mass returns the host's current mass vector.
func (n *Node) Mass() Mass { return n.c.Mass(0) }

// Config returns the node's configuration.
func (n *Node) Config() Config { return n.c.cfg }

// BeginRound implements gossip.Agent.
func (n *Node) BeginRound(round int) { n.c.emptyInbox(0) }

// Emit implements gossip.Agent: EmitAppend onto a fresh slice.
func (n *Node) Emit(round int, rng *xrand.Rand, pick gossip.PeerPicker) []gossip.Envelope {
	return n.EmitAppend(nil, round, rng, pick)
}

// EmitAppend implements gossip.AppendEmitter, with round-scoped
// payloads pointing at per-host scratch, so the steady state performs
// no heap allocation. Messages follow Columnar.EmitRange's order.
func (n *Node) EmitAppend(dst []gossip.Envelope, round int, rng *xrand.Rand, pick gossip.PeerPicker) []gossip.Envelope {
	c := &n.c
	var p any = &n.out.Mass
	if c.cfg.FullTransfer {
		n.out.Mass = Mass(c.parcel(0))
		for range c.cfg.Parcels {
			to, ok := pick()
			if !ok {
				to = n.id
			}
			dst = append(dst, gossip.Envelope{To: to, Payload: p})
		}
		return dst
	}
	peer, ok := pick()
	switch {
	case c.cfg.Adaptive:
		n.out.Mass = Mass(c.rawShare(0, !ok))
	case !ok:
		n.out.Mass = Mass(double(c.share(0)))
	default:
		n.out.Mass = Mass(c.share(0))
	}
	if c.moment != nil {
		c.shareQ(0, !ok)
		n.out.Q, p = c.outQ[0], &n.out
	}
	if !ok {
		return append(dst, gossip.Envelope{To: n.id, Payload: p})
	}
	return append(dst,
		gossip.Envelope{To: peer, Payload: p},
		gossip.Envelope{To: n.id, Payload: p},
	)
}

// Receive implements gossip.Agent. It takes the *Mass (or a moments
// host's *MomentsMass) of EmitAppend and the Mass value a socket
// transport decodes; any other payload is ignored.
func (n *Node) Receive(payload any) {
	var m MomentsMass
	switch p := payload.(type) {
	case *Mass:
		m.Mass = *p
	case Mass:
		m.Mass = p
	case *MomentsMass:
		m = *p
	default:
		return
	}
	if c := &n.c; c.cfg.Adaptive || c.moment != nil {
		c.receive(0, gossip.Mass(m.Mass), m.Q)
	} else {
		c.fold(0, gossip.Mass(m.Mass)) // receive's plain case, inlined
	}
}

// EndRound implements gossip.Agent.
func (n *Node) EndRound(round int) { n.c.end([]gossip.NodeID{0}) }

// Exchange implements gossip.Exchanger: pairwise mass averaging.
func (n *Node) Exchange(peer gossip.Exchanger) {
	p := &peer.(*Node).c
	n.c.exchange(0, p, 0)
	if n.c.moment != nil {
		average(&n.c.q[0], &p.q[0])
	}
}

// Estimate implements gossip.Agent. A moments host reports the
// standard deviation, computed on read.
func (n *Node) Estimate() (float64, bool) { return n.c.Estimate(0) }
