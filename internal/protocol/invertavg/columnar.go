package invertavg

import (
	"dynagg/internal/gossip"
	"dynagg/internal/protocol/pushsumrevert"
	"dynagg/internal/protocol/sketchreset"
)

// countTag marks the Count-Sketch-Reset half's messages in the From
// field's high bits — the columnar plane's version of the classic
// payload wrapper. The engine only reads ColMsg.To (routing, liveness),
// so From's upper bits are free for protocol routing; populations are
// bounded by 1<<30 hosts, far above anything the engine can simulate.
const countTag gossip.NodeID = 1 << 30

// Columnar is the struct-of-arrays form of Invert-Average: the
// columnar Count-Sketch-Reset and Push-Sum-Revert populations run side
// by side over one message column (gossip.ColumnarAgent +
// gossip.ColExchanger), with each message routed to its sub-protocol
// by the countTag bit. Emission order per host matches the classic
// Node exactly — count's message first (count's peer draw first), then
// the averaging half's — so PRNG streams and delivery folds are
// byte-identical to a population of *Node agents.
type Columnar struct {
	count *sketchreset.Columnar
	avg   *pushsumrevert.Columnar
}

var _ gossip.ColExchanger = (*Columnar)(nil)

// NewColumnar returns the columnar population of n Invert-Average
// hosts with data values vs.
func NewColumnar(vs []float64, countCfg sketchreset.Config, avgCfg pushsumrevert.Config) *Columnar {
	if countCfg.Identifiers == 0 {
		countCfg.Identifiers = 1
	}
	return &Columnar{
		count: sketchreset.NewColumnar(len(vs), countCfg),
		avg:   pushsumrevert.NewColumnar(vs, avgCfg),
	}
}

// Count exposes the embedded columnar Count-Sketch-Reset population.
func (c *Columnar) Count() *sketchreset.Columnar { return c.count }

// Avg exposes the embedded columnar Push-Sum-Revert population.
func (c *Columnar) Avg() *pushsumrevert.Columnar { return c.avg }

// Len implements gossip.ColumnarAgent.
func (c *Columnar) Len() int { return c.count.Len() }

// BeginRange implements gossip.ColumnarAgent.
func (c *Columnar) BeginRange(rc *gossip.ColRound, lo, hi int) {
	c.count.BeginRange(rc, lo, hi)
	c.avg.BeginRange(rc, lo, hi)
}

// EmitRange implements gossip.ColumnarAgent: per host, the sketch
// message first (with its own independent peer draw, tagged), then the
// averaging half's messages — the same per-host sub-protocol order,
// and therefore the same PRNG stream, as Node.Emit.
func (c *Columnar) EmitRange(rc *gossip.ColRound, lo, hi int) {
	for _, id := range rc.Live(lo, hi) {
		if peer, ok := rc.Pick(id); ok {
			c.count.Snapshot(id)
			rc.Out = append(rc.Out, gossip.ColMsg{To: peer, From: id | countTag})
		}
		c.avg.EmitRange(rc, int(id), int(id)+1)
	}
}

// Deliver implements gossip.ColumnarAgent: route each message to its
// sub-protocol by the countTag bit, in emitter order.
func (c *Columnar) Deliver(rc *gossip.ColRound, msgs []gossip.ColMsg) {
	for _, m := range msgs {
		switch {
		case !rc.Alive[m.To]:
		case m.From&countTag != 0:
			c.count.DeliverFrom(m.To, m.From&^countTag)
		default:
			c.avg.DeliverMsg(m)
		}
	}
}

// EndRange implements gossip.ColumnarAgent.
func (c *Columnar) EndRange(rc *gossip.ColRound, lo, hi int) {
	c.count.EndRange(rc, lo, hi)
	c.avg.EndRange(rc, lo, hi)
}

// ExchangePairs implements gossip.ColExchanger: both sub-protocols
// exchange over the same pairs. The sub-states are disjoint, so
// running the whole batch through one sub-protocol and then the other
// is equivalent to the classic per-pair count-then-avg interleaving.
func (c *Columnar) ExchangePairs(rc *gossip.ColRound, pairs []gossip.Pair) {
	c.count.ExchangePairs(rc, pairs)
	c.avg.ExchangePairs(rc, pairs)
}

// Estimate implements gossip.ColumnarAgent: size × average = sum,
// exactly Node.Estimate.
func (c *Columnar) Estimate(id gossip.NodeID) (float64, bool) {
	cnt, ok1 := c.count.Estimate(id)
	avg, ok2 := c.avg.Estimate(id)
	if !ok1 || !ok2 {
		return 0, false
	}
	return cnt * avg, true
}
