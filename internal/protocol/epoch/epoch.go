// Package epoch implements the epoch-based dynamic aggregation
// baseline discussed in §II-C (and attributed to Jelasity & Montresor
// in the related work): a static protocol — Push-Sum here — restarted
// at periodic intervals via weak clock synchronization. Every message
// carries an epoch counter; a host that hears a higher epoch resets
// its protocol state and adopts it.
//
// The paper's critique, which the ablation experiment reproduces: the
// optimal epoch length depends on network size (convergence time), yet
// network size is itself an aggregate; epochs shorter than convergence
// never produce a good estimate, while long epochs serve stale values
// after membership changes.
package epoch

import (
	"fmt"

	"dynagg/internal/gossip"
	"dynagg/internal/xrand"
)

// Message is Push-Sum mass tagged with an epoch number.
type Message struct {
	Epoch int
	W, V  float64
}

// Config parametrizes the epoch protocol.
type Config struct {
	// Length is the number of rounds per epoch.
	Length int
	// Maturity is the age (in rounds) after which the running epoch's
	// estimate is trusted; before that, the previous epoch's final
	// estimate is reported. Zero defaults to Length/2.
	Maturity int
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Length < 1 {
		return fmt.Errorf("epoch: Length must be >= 1, got %d", c.Length)
	}
	if c.Maturity < 0 || c.Maturity > c.Length {
		return fmt.Errorf("epoch: Maturity %d outside [0, Length]", c.Maturity)
	}
	return nil
}

// Node is one epoch-based averaging host.
type Node struct {
	id  gossip.NodeID
	cfg Config
	v0  float64

	epoch int
	age   int // rounds spent in the current epoch
	w, v  float64

	inW, inV float64
	inEpoch  int // highest epoch seen in this round's inbox
	received bool

	// out is the scratch payload referenced by EmitAppend envelopes.
	out Message

	prevEst    float64
	hasPrevEst bool
}

var (
	_ gossip.Agent         = (*Node)(nil)
	_ gossip.AppendEmitter = (*Node)(nil)
)

// New returns an epoch-averaging host with data value v0.
func New(id gossip.NodeID, v0 float64, cfg Config) *Node {
	if cfg.Maturity == 0 {
		cfg.Maturity = cfg.Length / 2
	}
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Node{id: id, cfg: cfg, v0: v0, w: 1, v: v0}
}

// ID returns the host id.
func (n *Node) ID() gossip.NodeID { return n.id }

// Epoch returns the host's current epoch number.
func (n *Node) Epoch() int { return n.epoch }

// reset begins a new epoch from the host's initial state.
func (n *Node) reset(epoch int) {
	if n.w > 1e-12 {
		n.prevEst = n.v / n.w
		n.hasPrevEst = true
	}
	n.epoch = epoch
	n.age = 0
	n.w, n.v = 1, n.v0
}

// BeginRound implements gossip.Agent: advance the local epoch clock.
func (n *Node) BeginRound(round int) {
	n.inW, n.inV = 0, 0
	n.inEpoch = n.epoch
	n.received = false
	n.age++
	if n.age >= n.cfg.Length {
		n.reset(n.epoch + 1)
	}
}

// Emit implements gossip.Agent: EmitAppend with every payload detached
// from the host's scratch into an independent Message value.
func (n *Node) Emit(round int, rng *xrand.Rand, pick gossip.PeerPicker) []gossip.Envelope {
	out := n.EmitAppend(nil, round, rng, pick)
	for i := range out {
		out[i].Payload = *out[i].Payload.(*Message)
	}
	return out
}

// EmitAppend implements gossip.AppendEmitter: epoch-tagged Push-Sum
// halves, as round-scoped payloads pointing at per-host scratch.
func (n *Node) EmitAppend(dst []gossip.Envelope, round int, rng *xrand.Rand, pick gossip.PeerPicker) []gossip.Envelope {
	peer, ok := pick()
	if !ok {
		n.out = Message{Epoch: n.epoch, W: n.w, V: n.v}
		return append(dst, gossip.Envelope{To: n.id, Payload: &n.out})
	}
	n.out = Message{Epoch: n.epoch, W: n.w / 2, V: n.v / 2}
	return append(dst,
		gossip.Envelope{To: peer, Payload: &n.out},
		gossip.Envelope{To: n.id, Payload: &n.out},
	)
}

// Receive implements gossip.Agent: mass from older epochs is dropped;
// mass from a newer epoch triggers adoption at round end. Both the
// boxed Message of Emit and the scratch-backed *Message of EmitAppend
// are accepted.
func (n *Node) Receive(payload any) {
	var m Message
	switch p := payload.(type) {
	case *Message:
		m = *p
	case Message:
		m = p
	default:
		panic(fmt.Sprintf("epoch: unexpected payload %T", payload))
	}
	switch {
	case m.Epoch < n.inEpoch:
		return // stale epoch: discard
	case m.Epoch > n.inEpoch:
		// Newer epoch preempts everything accumulated so far.
		n.inEpoch = m.Epoch
		n.inW, n.inV = m.W, m.V
		n.received = true
	default:
		n.inW += m.W
		n.inV += m.V
		n.received = true
	}
}

// EndRound implements gossip.Agent.
func (n *Node) EndRound(round int) {
	if !n.received {
		return
	}
	if n.inEpoch > n.epoch {
		// Adopt the newer epoch: restart from the initial state plus
		// the received mass.
		n.reset(n.inEpoch)
		n.w += n.inW
		n.v += n.inV
		return
	}
	n.w, n.v = n.inW, n.inV
}

// Estimate implements gossip.Agent: the current epoch's running ratio
// once mature, otherwise the previous epoch's final estimate.
func (n *Node) Estimate() (float64, bool) {
	if n.age >= n.cfg.Maturity && n.w > 1e-12 {
		return n.v / n.w, true
	}
	if n.hasPrevEst {
		return n.prevEst, true
	}
	if n.w > 1e-12 {
		return n.v / n.w, true
	}
	return 0, false
}
