package epoch

import (
	"slices"

	"dynagg/internal/gossip"
)

// Columnar is epoch-based averaging over a whole population: one value
// holds every host's state (gossip.ColumnarAgent), and each phase is a
// loop over the live hosts calling the same per-host methods as Node.
// The epoch-tagged mass does not fit ColMsg's inline pair, so messages
// travel payload-free and Deliver reads the emitter's out payload via
// ColMsg.From — every message a host emits in a round carries the same
// (epoch, w, v).
//
// Like the classic Node, the protocol is push-only (it implements no
// exchange). Byte-identical to a population of *Node agents on the
// classic push path.
type Columnar struct {
	cfg Config
	h   []host
}

var _ gossip.ColumnarAgent = (*Columnar)(nil)

// NewColumnar returns the columnar population with data values vs, all
// hosts sharing cfg.
func NewColumnar(vs []float64, cfg Config) *Columnar {
	cfg.prepare()
	c := &Columnar{cfg: cfg, h: make([]host, len(vs))}
	for i, v0 := range vs {
		c.h[i] = newHost(v0)
	}
	return c
}

// Len implements gossip.ColumnarAgent.
func (c *Columnar) Len() int { return len(c.h) }

// Epoch returns host id's current epoch number.
func (c *Columnar) Epoch(id gossip.NodeID) int { return c.h[id].epoch }

// BeginRange implements gossip.ColumnarAgent (Node.BeginRound).
func (c *Columnar) BeginRange(rc *gossip.ColRound, lo, hi int) {
	for _, i := range rc.Live(lo, hi) {
		c.h[i].begin(c.cfg.Length)
	}
}

// EmitRange implements gossip.ColumnarAgent: epoch-tagged Push-Sum
// halves, in the same peer-then-self order as Node.EmitAppend.
func (c *Columnar) EmitRange(rc *gossip.ColRound, lo, hi int) {
	live := rc.Live(lo, hi)
	out := slices.Grow(rc.Out, 2*len(live)) // a peer message and a self-message
	for _, id := range live {
		peer, ok := rc.Pick(id)
		c.h[id].emit(ok)
		if ok {
			out = append(out, gossip.ColMsg{To: peer, From: id})
		}
		out = append(out, gossip.ColMsg{To: id, From: id})
	}
	rc.Out = out
}

// Deliver implements gossip.ColumnarAgent (Node.Receive), folded in
// emitter order.
func (c *Columnar) Deliver(rc *gossip.ColRound, msgs []gossip.ColMsg) {
	for _, m := range msgs {
		if rc.Alive[m.To] {
			c.h[m.To].receive(c.h[m.From].out)
		}
	}
}

// EndRange implements gossip.ColumnarAgent (Node.EndRound).
func (c *Columnar) EndRange(rc *gossip.ColRound, lo, hi int) {
	for _, i := range rc.Live(lo, hi) {
		c.h[i].end()
	}
}

// Estimate implements gossip.ColumnarAgent (Node.Estimate).
func (c *Columnar) Estimate(id gossip.NodeID) (float64, bool) {
	return c.h[id].estimate(c.cfg.Maturity)
}
