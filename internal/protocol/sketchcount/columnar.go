package sketchcount

import (
	"slices"

	"dynagg/internal/gossip"
	"dynagg/internal/sketch"
)

// Columnar is Sketch-Count over a whole population: every host's FM
// sketch lives in ONE flat bins block (sketch.NewBlock, host-major)
// instead of one heap sketch per host, and the round phases are loops
// over it calling the same sketch methods as Node
// (gossip.ColumnarAgent + gossip.ColExchanger). Gossip messages carry
// no payload on the columnar plane — Deliver OR-merges the emitter's
// start-of-round sketch (double-buffered in shadow) into the
// destination's, which is exactly what the classic path's snapshot
// payloads did.
//
// Byte-identical to a population of *Node agents on the classic path:
// identifier placement, merge results, and estimates all match for
// both gossip models.
type Columnar struct {
	scale float64

	// sk is the population's sketches, one per host.
	sk []sketch.Sketch
	// shadow double-buffers the sketches at emission time so merges
	// read every emitter's start-of-round sketch regardless of delivery
	// order.
	shadow []sketch.Sketch
}

var _ gossip.ColExchanger = (*Columnar)(nil)

// NewColumnarCount returns the columnar population of n hosts each
// contributing a single identifier (the columnar twin of NewCount), so
// the converged estimate is the network size.
func NewColumnarCount(n int, p sketch.Params) *Columnar {
	c := &Columnar{scale: 1, sk: sketch.NewBlock(p, n), shadow: sketch.NewBlock(p, n)}
	for i := range c.sk {
		c.sk[i].Insert(uint64(i) + 1)
	}
	return c
}

// Len implements gossip.ColumnarAgent.
func (c *Columnar) Len() int { return len(c.sk) }

// Bit reports whether host id's sketch bit at pos is set.
func (c *Columnar) Bit(id gossip.NodeID, pos sketch.Position) bool { return c.sk[id].Bit(pos) }

// BeginRange implements gossip.ColumnarAgent; like Node.BeginRound it
// has nothing to reset — the sketch only ever accumulates.
func (c *Columnar) BeginRange(rc *gossip.ColRound, lo, hi int) {}

// EmitRange implements gossip.ColumnarAgent: snapshot each live host's
// sketch into the shadow block (the columnar form of the classic
// path's snapshot payload), then address one payload-free message to a
// random peer. Isolated hosts emit nothing, as in Node.Emit.
func (c *Columnar) EmitRange(rc *gossip.ColRound, lo, hi int) {
	live := rc.Live(lo, hi)
	out := slices.Grow(rc.Out, len(live)) // one message per live host at most
	for _, id := range live {
		peer, ok := rc.Pick(id)
		if !ok {
			continue
		}
		c.shadow[id].CopyFrom(&c.sk[id])
		out = append(out, gossip.ColMsg{To: peer, From: id})
	}
	rc.Out = out
}

// Deliver implements gossip.ColumnarAgent: OR the emitter's shadow
// sketch into the destination's (Node.Receive's merge).
func (c *Columnar) Deliver(rc *gossip.ColRound, msgs []gossip.ColMsg) {
	for _, m := range msgs {
		if rc.Alive[m.To] {
			c.sk[m.To].Merge(&c.shadow[m.From])
		}
	}
}

// EndRange implements gossip.ColumnarAgent; estimates are derived on
// demand, as on the classic path.
func (c *Columnar) EndRange(rc *gossip.ColRound, lo, hi int) {}

// ExchangePairs implements gossip.ColExchanger: mutual OR-merge, after
// which both ends' sketches are identical (Node.Exchange).
func (c *Columnar) ExchangePairs(rc *gossip.ColRound, pairs []gossip.Pair) {
	for _, pr := range pairs {
		a, b := &c.sk[pr.A], &c.sk[pr.B]
		a.Merge(b)
		b.Merge(a)
	}
}

// Estimate implements gossip.ColumnarAgent (Node.Estimate).
func (c *Columnar) Estimate(id gossip.NodeID) (float64, bool) {
	return c.sk[id].Estimate() / c.scale, true
}
