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

// Node is one Push-Sum-Revert host.
type Node struct {
	id  gossip.NodeID
	cfg Config
	v0  float64
	w0  float64
	mv0 float64 // initial value mass w₀·v₀, the reversion target for v

	w, v float64

	inW, inV float64
	inMsgs   int

	// out is the scratch payload referenced by EmitAppend envelopes
	// (every envelope of a round carries the same mass value, so one
	// scratch slot suffices even for Full-Transfer's N parcels).
	out Mass

	// Full-Transfer estimate window: the last Window rounds in which
	// mass arrived, as a ring buffer.
	histW, histV []float64
	histPos      int
	histLen      int

	est    float64
	hasEst bool

	// mom is the second value of a NewMoments host, nil otherwise.
	mom *momentState
}

var (
	_ gossip.Agent         = (*Node)(nil)
	_ gossip.Exchanger     = (*Node)(nil)
	_ gossip.AppendEmitter = (*Node)(nil)
)

// New returns a Push-Sum-Revert host with data value v0.
func New(id gossip.NodeID, v0 float64, cfg Config) *Node {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	w0 := cfg.Weight
	if w0 == 0 {
		w0 = 1
	}
	n := &Node{id: id, cfg: cfg, v0: v0, w0: w0, mv0: w0 * v0, w: w0, v: w0 * v0}
	if cfg.FullTransfer {
		n.histW = make([]float64, cfg.Window)
		n.histV = make([]float64, cfg.Window)
	}
	n.est = v0
	n.hasEst = true
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
// Because the reversion step decays toward zero mass, an observer
// destroys a λ fraction of whatever mass it holds each round; the
// population's own reversion regenerates it, exactly the silent-
// departure scenario §III is built to absorb.
func NewObserver(id gossip.NodeID, cfg Config) *Node {
	cfg.Weight = 0
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := &Node{id: id, cfg: cfg}
	if cfg.FullTransfer {
		n.histW = make([]float64, cfg.Window)
		n.histV = make([]float64, cfg.Window)
	}
	return n
}

// Reset restores the host to its freshly-constructed state: held and
// in-flight gossip mass is discarded, the initial endowment (w₀, w₀·v₀)
// re-sourced, and the Full-Transfer window cleared. It models a crashed
// process restarting from its local data value — the round-engine twin
// of the live cluster's kill-and-Replace choreography. Observers
// (w₀ = 0) reset to an empty, not-yet-converged state.
func (n *Node) Reset() {
	n.w, n.v = n.w0, n.mv0
	n.inW, n.inV = 0, 0
	n.inMsgs = 0
	n.out = Mass{}
	for i := range n.histW {
		n.histW[i], n.histV[i] = 0, 0
	}
	n.histPos, n.histLen = 0, 0
	n.est, n.hasEst = 0, false
	if n.w0 > 0 {
		n.est, n.hasEst = n.v0, true
	}
	if m := n.mom; m != nil {
		m.q, m.inQ = m.q0, 0
	}
}

// ID returns the host id.
func (n *Node) ID() gossip.NodeID { return n.id }

// Value returns the host's initial data value v₀.
func (n *Node) Value() float64 { return n.v0 }

// Weight returns the host's initial weight w₀.
func (n *Node) Weight() float64 { return n.w0 }

// Mass returns the host's current mass vector.
func (n *Node) Mass() Mass { return Mass{W: n.w, V: n.v} }

// Config returns the node's configuration.
func (n *Node) Config() Config { return n.cfg }

// BeginRound implements gossip.Agent.
func (n *Node) BeginRound(round int) {
	n.inW, n.inV = 0, 0
	n.inMsgs = 0
	if n.mom != nil {
		n.mom.inQ = 0
	}
}

// Emit implements gossip.Agent: EmitAppend with every payload detached
// from the host's scratch into an independent Mass value.
func (n *Node) Emit(round int, rng *xrand.Rand, pick gossip.PeerPicker) []gossip.Envelope {
	out := n.EmitAppend(nil, round, rng, pick)
	for i := range out {
		switch p := out[i].Payload.(type) {
		case *Mass:
			out[i].Payload = *p
		case *MomentsMass:
			out[i].Payload = *p
		}
	}
	return out
}

// EmitAppend implements gossip.AppendEmitter, with round-scoped
// payloads pointing at per-host scratch, so the steady state performs
// no heap allocation.
func (n *Node) EmitAppend(dst []gossip.Envelope, round int, rng *xrand.Rand, pick gossip.PeerPicker) []gossip.Envelope {
	λ := n.cfg.Lambda
	if n.cfg.FullTransfer {
		// Figure 4: the entire (reverted) mass leaves as N parcels to
		// independently selected peers; nothing is retained.
		N := n.cfg.Parcels
		n.out = Mass{
			W: ((1-λ)*n.w + λ*n.w0) / float64(N),
			V: ((1-λ)*n.v + λ*n.mv0) / float64(N),
		}
		for i := 0; i < N; i++ {
			if peer, ok := pick(); ok {
				dst = append(dst, gossip.Envelope{To: peer, Payload: &n.out})
			} else {
				// No reachable peer: this parcel stays home rather
				// than evaporating.
				dst = append(dst, gossip.Envelope{To: n.id, Payload: &n.out})
			}
		}
		return dst
	}
	if n.cfg.Adaptive {
		// Reversion is applied on receipt, scaled by indegree; the
		// message itself is plain Push-Sum mass.
		peer, ok := pick()
		if !ok {
			n.out = Mass{W: n.w, V: n.v}
			return append(dst, gossip.Envelope{To: n.id, Payload: &n.out})
		}
		n.out = Mass{W: n.w / 2, V: n.v / 2}
		return append(dst,
			gossip.Envelope{To: peer, Payload: &n.out},
			gossip.Envelope{To: n.id, Payload: &n.out},
		)
	}
	// Figure 3: the reverted mass is split between peer and self.
	half := Mass{
		W: ((1-λ)*n.w + λ*n.w0) / 2,
		V: ((1-λ)*n.v + λ*n.mv0) / 2,
	}
	peer, ok := pick()
	if !ok {
		n.out = Mass{W: 2 * half.W, V: 2 * half.V}
		return append(dst, gossip.Envelope{To: n.id, Payload: n.payload(true)})
	}
	n.out = half
	p := n.payload(false)
	return append(dst,
		gossip.Envelope{To: peer, Payload: p},
		gossip.Envelope{To: n.id, Payload: p},
	)
}

// Receive implements gossip.Agent. Both the boxed Mass of Emit and
// the scratch-backed *Mass of EmitAppend are accepted, and a moments
// host's MomentsMass in either form.
func (n *Node) Receive(payload any) {
	var m Mass
	switch p := payload.(type) {
	case *Mass:
		m = *p
	case Mass:
		m = p
	case *MomentsMass:
		m = p.Mass
		n.mom.inQ += p.Q
	case MomentsMass:
		m = p.Mass
		n.mom.inQ += p.Q
	default:
		panic(fmt.Sprintf("pushsumrevert: unexpected payload %T", payload))
	}
	if n.cfg.Adaptive {
		// §III-A: add λ/2 of the initial mass per message received,
		// damping the received mass by (1-λ) so that with the expected
		// two messages per round the update matches the fixed-λ rule.
		λ := n.cfg.Lambda
		n.inW += (1-λ)*m.W + (λ/2)*n.w0
		n.inV += (1-λ)*m.V + (λ/2)*n.mv0
	} else {
		n.inW += m.W
		n.inV += m.V
	}
	n.inMsgs++
}

// EndRound implements gossip.Agent.
func (n *Node) EndRound(round int) {
	if n.cfg.PushPull {
		// Mass was updated in place by Exchange; apply the reversion
		// decay exactly once per round.
		n.endRoundPull()
		return
	}
	if n.cfg.FullTransfer {
		// The host keeps only what arrived; rounds with no arrivals
		// leave it empty-handed until the next delivery.
		n.w, n.v = n.inW, n.inV
		if n.inMsgs > 0 && n.inW > 0 {
			n.histW[n.histPos] = n.inW
			n.histV[n.histPos] = n.inV
			n.histPos = (n.histPos + 1) % n.cfg.Window
			if n.histLen < n.cfg.Window {
				n.histLen++
			}
		}
		n.refreshWindowEstimate()
		return
	}
	n.w, n.v = n.inW, n.inV
	if n.mom != nil {
		n.mom.q = n.mom.inQ
	}
	n.refreshEstimate()
}

// Exchange implements gossip.Exchanger: pairwise mass averaging.
// Under push/pull the engine never calls Emit/Receive; EndRound
// applies the reversion decay to the post-exchange mass.
func (n *Node) Exchange(peer gossip.Exchanger) {
	p := peer.(*Node)
	mw := (n.w + p.w) / 2
	mv := (n.v + p.v) / 2
	n.w, p.w = mw, mw
	n.v, p.v = mv, mv
	if n.mom != nil {
		mq := (n.mom.q + p.mom.q) / 2
		n.mom.q, p.mom.q = mq, mq
	}
}

// endRoundPull applies the once-per-round reversion decay used under
// the push/pull model.
func (n *Node) endRoundPull() {
	λ := n.cfg.Lambda
	n.w = λ*n.w0 + (1-λ)*n.w
	n.v = λ*n.mv0 + (1-λ)*n.v
	if m := n.mom; m != nil {
		m.q = λ*m.q0 + (1-λ)*m.q
	}
	n.refreshEstimate()
}

func (n *Node) refreshEstimate() {
	if n.w > 1e-12 {
		n.est = n.v / n.w
		n.hasEst = true
	}
}

func (n *Node) refreshWindowEstimate() {
	var sw, sv float64
	for i := 0; i < n.histLen; i++ {
		sw += n.histW[i]
		sv += n.histV[i]
	}
	if sw > 1e-12 {
		n.est = sv / sw
		n.hasEst = true
	}
}

// Estimate implements gossip.Agent. A moments host reports the
// standard deviation, computed on read.
func (n *Node) Estimate() (float64, bool) {
	if n.mom != nil {
		return stdDev(n.w, n.v, n.mom.q)
	}
	return n.est, n.hasEst
}
