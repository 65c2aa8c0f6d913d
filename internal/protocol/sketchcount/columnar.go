package sketchcount

import (
	"math"
	"math/bits"

	"dynagg/internal/gossip"
	"dynagg/internal/sketch"
)

// Columnar is the struct-of-arrays form of Sketch-Count: the whole
// population's FM bit sketches live in ONE flat []uint64 block (host-
// major, one word per bin) instead of one heap sketch per host, and
// the round phases run as flat loops over it (gossip.ColumnarAgent +
// gossip.ColExchanger). Gossip messages carry no payload on the
// columnar plane — Deliver OR-merges the emitter's start-of-round bins
// (double-buffered in shadow) into the destination's, which is exactly
// what the classic path's snapshot payloads did.
//
// Byte-identical to a population of *Node agents on the classic path:
// identifier placement, merge results, and estimates all match for
// both gossip models.
type Columnar struct {
	params sketch.Params
	scale  float64

	// bins is the population bit block; host i's sketch is
	// bins[i*Bins : (i+1)*Bins], low bit = level 0.
	bins []uint64
	// shadow double-buffers the bins at emission time so merges read
	// every emitter's start-of-round sketch regardless of delivery
	// order.
	shadow []uint64
}

var _ gossip.ColExchanger = (*Columnar)(nil)

// newColumnar allocates the empty population block.
func newColumnar(n int, p sketch.Params, scale float64) *Columnar {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &Columnar{
		params: p,
		scale:  scale,
		bins:   make([]uint64, n*p.Bins),
		shadow: make([]uint64, n*p.Bins),
	}
}

// insert records one identifier into host i's sketch, with the same
// placement as sketch.Insert.
func (c *Columnar) insert(i int, ident uint64) {
	pos := c.params.Place(ident)
	c.bins[i*c.params.Bins+pos.Bin] |= 1 << uint(pos.Level)
}

// NewColumnarCount returns the columnar population of n hosts each
// contributing a single identifier (the columnar twin of NewCount), so
// the converged estimate is the network size.
func NewColumnarCount(n int, p sketch.Params) *Columnar {
	c := newColumnar(n, p, 1)
	for i := 0; i < n; i++ {
		c.insert(i, uint64(i)+1)
	}
	return c
}

// Len implements gossip.ColumnarAgent.
func (c *Columnar) Len() int { return len(c.bins) / c.params.Bins }

// Bit reports whether host id's sketch bit at pos is set.
func (c *Columnar) Bit(id gossip.NodeID, pos sketch.Position) bool {
	return c.bins[int(id)*c.params.Bins+pos.Bin]&(1<<uint(pos.Level)) != 0
}

// BeginRange implements gossip.ColumnarAgent; like Node.BeginRound it
// has nothing to reset — the sketch only ever accumulates.
func (c *Columnar) BeginRange(rc *gossip.ColRound, lo, hi int) {}

// EmitRange implements gossip.ColumnarAgent: snapshot each live host's
// bins into the shadow block (the columnar form of the classic path's
// cloned payload), then address one payload-free message to a random
// peer. Isolated hosts emit nothing, as in Node.Emit.
func (c *Columnar) EmitRange(rc *gossip.ColRound, lo, hi int) {
	out := rc.Out
	m := c.params.Bins
	for _, id := range rc.Live(lo, hi) {
		peer, ok := rc.Pick(id)
		if !ok {
			continue
		}
		i := int(id)
		copy(c.shadow[i*m:(i+1)*m], c.bins[i*m:(i+1)*m])
		out = append(out, gossip.ColMsg{To: peer, From: id})
	}
	rc.Out = out
}

// Deliver implements gossip.ColumnarAgent: OR the emitter's shadow
// bins into the destination's live bins — order-insensitive and
// idempotent, exactly Node.Receive's merge.
func (c *Columnar) Deliver(rc *gossip.ColRound, msgs []gossip.ColMsg) {
	m := c.params.Bins
	for _, msg := range msgs {
		dst := c.bins[int(msg.To)*m : (int(msg.To)+1)*m]
		src := c.shadow[int(msg.From)*m : (int(msg.From)+1)*m]
		for j, b := range src {
			dst[j] |= b
		}
	}
}

// EndRange implements gossip.ColumnarAgent; estimates are derived on
// demand, as on the classic path.
func (c *Columnar) EndRange(rc *gossip.ColRound, lo, hi int) {}

// ExchangePairs implements gossip.ColExchanger: mutual OR-merge, after
// which both ends' sketches are identical (Node.Exchange).
func (c *Columnar) ExchangePairs(rc *gossip.ColRound, pairs []gossip.Pair) {
	m := c.params.Bins
	for _, pr := range pairs {
		a := c.bins[int(pr.A)*m : (int(pr.A)+1)*m]
		b := c.bins[int(pr.B)*m : (int(pr.B)+1)*m]
		for j := range a {
			a[j] |= b[j]
			b[j] = a[j]
		}
	}
}

// Estimate implements gossip.ColumnarAgent: m·2^avg(R)/ϕ over host
// id's bins, divided by the identifier scale — the same arithmetic, in
// the same order, as sketch.Estimate followed by Node.Estimate.
func (c *Columnar) Estimate(id gossip.NodeID) (float64, bool) {
	m := c.params.Bins
	row := c.bins[int(id)*m : (int(id)+1)*m]
	empty := true
	for _, b := range row {
		if b != 0 {
			empty = false
			break
		}
	}
	if empty {
		return 0, true
	}
	var sum int
	for _, v := range row {
		r := bits.TrailingZeros64(^v)
		if r > c.params.Levels {
			r = c.params.Levels
		}
		sum += r
	}
	avgR := float64(sum) / float64(m)
	return float64(m) * math.Exp2(avgR) / sketch.Phi / c.scale, true
}
