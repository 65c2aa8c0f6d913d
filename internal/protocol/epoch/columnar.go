package epoch

import (
	"dynagg/internal/gossip"
)

// Columnar is the struct-of-arrays form of epoch-based averaging: one
// value owns the whole population's epoch clocks, mass vectors, and
// inboxes as dense columns (gossip.ColumnarAgent). The epoch-tagged
// mass does not fit ColMsg's inline pair, so messages travel
// payload-free and Deliver reads the emitter's per-round out columns
// via ColMsg.From — every message a host emits in a round carries the
// same (epoch, w, v), so one column slot per host suffices.
//
// Like the classic Node, the protocol is push-only (it implements no
// exchange). Byte-identical to a population of *Node agents on the
// classic push path.
type Columnar struct {
	cfg Config

	v0    []float64
	epoch []int
	age   []int
	w, v  []float64

	inW, inV []float64
	inEpoch  []int
	received []bool

	// outW/outV/outEpoch hold the payload carried by each of host i's
	// messages this round, written in EmitRange and read by Deliver.
	outW, outV []float64
	outEpoch   []int

	prevEst    []float64
	hasPrevEst []bool
}

var _ gossip.ColumnarAgent = (*Columnar)(nil)

// NewColumnar returns the columnar population with data values vs, all
// hosts sharing cfg.
func NewColumnar(vs []float64, cfg Config) *Columnar {
	if cfg.Maturity == 0 {
		cfg.Maturity = cfg.Length / 2
	}
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := len(vs)
	c := &Columnar{
		cfg:        cfg,
		v0:         append([]float64(nil), vs...),
		epoch:      make([]int, n),
		age:        make([]int, n),
		w:          make([]float64, n),
		v:          make([]float64, n),
		inW:        make([]float64, n),
		inV:        make([]float64, n),
		inEpoch:    make([]int, n),
		received:   make([]bool, n),
		outW:       make([]float64, n),
		outV:       make([]float64, n),
		outEpoch:   make([]int, n),
		prevEst:    make([]float64, n),
		hasPrevEst: make([]bool, n),
	}
	for i, v0 := range vs {
		c.w[i] = 1
		c.v[i] = v0
	}
	return c
}

// Len implements gossip.ColumnarAgent.
func (c *Columnar) Len() int { return len(c.w) }

// Epoch returns host id's current epoch number.
func (c *Columnar) Epoch(id gossip.NodeID) int { return c.epoch[id] }

// reset begins a new epoch at host i from its initial state
// (Node.reset).
func (c *Columnar) reset(i, epoch int) {
	if c.w[i] > 1e-12 {
		c.prevEst[i] = c.v[i] / c.w[i]
		c.hasPrevEst[i] = true
	}
	c.epoch[i] = epoch
	c.age[i] = 0
	c.w[i] = 1
	c.v[i] = c.v0[i]
}

// BeginRange implements gossip.ColumnarAgent: advance each live host's
// epoch clock (Node.BeginRound).
func (c *Columnar) BeginRange(rc *gossip.ColRound, lo, hi int) {
	for _, i := range rc.Live(lo, hi) {
		c.inW[i] = 0
		c.inV[i] = 0
		c.inEpoch[i] = c.epoch[i]
		c.received[i] = false
		c.age[i]++
		if c.age[i] >= c.cfg.Length {
			c.reset(int(i), c.epoch[i]+1)
		}
	}
}

// EmitRange implements gossip.ColumnarAgent: epoch-tagged Push-Sum
// halves, in the same peer-then-self order as Node.Emit.
func (c *Columnar) EmitRange(rc *gossip.ColRound, lo, hi int) {
	out := rc.Out
	for _, id := range rc.Live(lo, hi) {
		c.outEpoch[id] = c.epoch[id]
		peer, ok := rc.Pick(id)
		if !ok {
			// Isolated host: all mass returns to self.
			c.outW[id] = c.w[id]
			c.outV[id] = c.v[id]
			out = append(out, gossip.ColMsg{To: id, From: id})
			continue
		}
		c.outW[id] = c.w[id] / 2
		c.outV[id] = c.v[id] / 2
		out = append(out,
			gossip.ColMsg{To: peer, From: id},
			gossip.ColMsg{To: id, From: id},
		)
	}
	rc.Out = out
}

// Deliver implements gossip.ColumnarAgent: mass from older epochs is
// dropped, mass from a newer epoch preempts everything accumulated so
// far (Node.Receive), folded in emitter order.
func (c *Columnar) Deliver(rc *gossip.ColRound, msgs []gossip.ColMsg) {
	for _, m := range msgs {
		to, from := m.To, m.From
		ep := c.outEpoch[from]
		switch {
		case !rc.Alive[to]:
		case ep < c.inEpoch[to]:
			// Stale epoch: discard.
		case ep > c.inEpoch[to]:
			c.inEpoch[to] = ep
			c.inW[to] = c.outW[from]
			c.inV[to] = c.outV[from]
			c.received[to] = true
		default:
			c.inW[to] += c.outW[from]
			c.inV[to] += c.outV[from]
			c.received[to] = true
		}
	}
}

// EndRange implements gossip.ColumnarAgent (Node.EndRound): adopt a
// newer epoch by restarting from the initial state plus the received
// mass, otherwise replace the mass with the inbox.
func (c *Columnar) EndRange(rc *gossip.ColRound, lo, hi int) {
	for _, i := range rc.Live(lo, hi) {
		if !c.received[i] {
			continue
		}
		if c.inEpoch[i] > c.epoch[i] {
			c.reset(int(i), c.inEpoch[i])
			c.w[i] += c.inW[i]
			c.v[i] += c.inV[i]
			continue
		}
		c.w[i] = c.inW[i]
		c.v[i] = c.inV[i]
	}
}

// Estimate implements gossip.ColumnarAgent: the current epoch's
// running ratio once mature, otherwise the previous epoch's final
// estimate (Node.Estimate).
func (c *Columnar) Estimate(id gossip.NodeID) (float64, bool) {
	if c.age[id] >= c.cfg.Maturity && c.w[id] > 1e-12 {
		return c.v[id] / c.w[id], true
	}
	if c.hasPrevEst[id] {
		return c.prevEst[id], true
	}
	if c.w[id] > 1e-12 {
		return c.v[id] / c.w[id], true
	}
	return 0, false
}
