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

// Detach implements gossip.Detacher: a copy of the emitter's scratch.
func (m *Message) Detach() any { c := *m; return &c }

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

// prepare fills cfg's default Maturity and panics on an invalid
// configuration.
func (cfg *Config) prepare() {
	if cfg.Maturity == 0 {
		cfg.Maturity = cfg.Length / 2
	}
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
}

// host is one host's epoch-based averaging state and arithmetic,
// shared by Node (one host) and Columnar (a slice of them).
type host struct {
	v0 float64

	epoch int
	age   int // rounds spent in the current epoch
	w, v  float64

	inW, inV float64
	inEpoch  int // highest epoch seen in this round's inbox
	received bool

	// out is the payload carried by every message the host emits this
	// round: Node's EmitAppend envelopes point at it, and Columnar's
	// Deliver reads it through ColMsg.From.
	out Message

	prevEst    float64
	hasPrevEst bool
}

// newHost is a host with data value v0 at the start of epoch 0.
func newHost(v0 float64) host { return host{v0: v0, w: 1, v: v0} }

// reset begins a new epoch from the host's initial state.
func (h *host) reset(epoch int) {
	if h.w > 1e-12 {
		h.prevEst = h.v / h.w
		h.hasPrevEst = true
	}
	h.epoch = epoch
	h.age = 0
	h.w, h.v = 1, h.v0
}

// begin advances the local epoch clock, restarting after length rounds.
func (h *host) begin(length int) {
	h.inW, h.inV = 0, 0
	h.inEpoch = h.epoch
	h.received = false
	h.age++
	if h.age >= length {
		h.reset(h.epoch + 1)
	}
}

// emit sets the round's payload: half the mass when a peer was
// picked, all of it (returning to self) when the host is isolated.
func (h *host) emit(split bool) {
	if !split {
		h.out = Message{Epoch: h.epoch, W: h.w, V: h.v}
		return
	}
	h.out = Message{Epoch: h.epoch, W: h.w / 2, V: h.v / 2}
}

// receive folds one message: mass from older epochs is dropped, mass
// from a newer epoch preempts everything accumulated so far.
func (h *host) receive(m Message) {
	switch {
	case m.Epoch < h.inEpoch:
		return // stale epoch: discard
	case m.Epoch > h.inEpoch:
		h.inEpoch = m.Epoch
		h.inW, h.inV = m.W, m.V
		h.received = true
	default:
		h.inW += m.W
		h.inV += m.V
		h.received = true
	}
}

// end adopts a newer epoch by restarting from the initial state plus
// the received mass, otherwise replaces the mass with the inbox.
func (h *host) end() {
	if !h.received {
		return
	}
	if h.inEpoch > h.epoch {
		h.reset(h.inEpoch)
		h.w += h.inW
		h.v += h.inV
		return
	}
	h.w, h.v = h.inW, h.inV
}

// estimate is the current epoch's running ratio once mature, otherwise
// the previous epoch's final estimate.
func (h *host) estimate(maturity int) (float64, bool) {
	if h.age >= maturity && h.w > 1e-12 {
		return h.v / h.w, true
	}
	if h.hasPrevEst {
		return h.prevEst, true
	}
	if h.w > 1e-12 {
		return h.v / h.w, true
	}
	return 0, false
}

// Node is one epoch-based averaging host.
type Node struct {
	id  gossip.NodeID
	cfg Config
	host
}

var (
	_ gossip.Agent         = (*Node)(nil)
	_ gossip.AppendEmitter = (*Node)(nil)
)

// New returns an epoch-averaging host with data value v0.
func New(id gossip.NodeID, v0 float64, cfg Config) *Node {
	cfg.prepare()
	return &Node{id: id, cfg: cfg, host: newHost(v0)}
}

// ID returns the host id.
func (n *Node) ID() gossip.NodeID { return n.id }

// Epoch returns the host's current epoch number.
func (n *Node) Epoch() int { return n.epoch }

// BeginRound implements gossip.Agent: advance the local epoch clock.
func (n *Node) BeginRound(round int) { n.begin(n.cfg.Length) }

// Emit implements gossip.Agent: EmitAppend onto a fresh slice.
func (n *Node) Emit(round int, rng *xrand.Rand, pick gossip.PeerPicker) []gossip.Envelope {
	return n.EmitAppend(nil, round, rng, pick)
}

// EmitAppend implements gossip.AppendEmitter: epoch-tagged Push-Sum
// halves, as round-scoped payloads pointing at per-host scratch.
func (n *Node) EmitAppend(dst []gossip.Envelope, round int, rng *xrand.Rand, pick gossip.PeerPicker) []gossip.Envelope {
	peer, ok := pick()
	n.emit(ok)
	if !ok {
		return append(dst, gossip.Envelope{To: n.id, Payload: &n.out})
	}
	return append(dst,
		gossip.Envelope{To: peer, Payload: &n.out},
		gossip.Envelope{To: n.id, Payload: &n.out},
	)
}

// Receive implements gossip.Agent: mass from older epochs is dropped;
// mass from a newer epoch triggers adoption at round end. A payload
// other than EmitAppend's *Message is ignored.
func (n *Node) Receive(payload any) {
	if m, ok := payload.(*Message); ok {
		n.receive(*m)
	}
}

// EndRound implements gossip.Agent.
func (n *Node) EndRound(round int) { n.end() }

// Estimate implements gossip.Agent: the current epoch's running ratio
// once mature, otherwise the previous epoch's final estimate.
func (n *Node) Estimate() (float64, bool) { return n.estimate(n.cfg.Maturity) }
