package moments

import (
	"math"

	"dynagg/internal/gossip"
)

// Columnar is the struct-of-arrays form of the dynamic-variance
// protocol: one value owns the whole population's three-component mass
// vectors (w, v, q), reversion targets, and inboxes as dense columns
// (gossip.ColumnarAgent + gossip.ColExchanger). The three-component
// mass does not fit ColMsg's inline (W, V) pair, so messages travel
// payload-free and Deliver reads the emitter's per-round out columns
// via ColMsg.From — every message a host emits in a round carries the
// same mass, so one column slot per host suffices (the isolated-host
// whole simply overwrites the slot with 2× the half).
//
// Byte-identical to a population of *Node agents on the classic path
// for both gossip models.
type Columnar struct {
	cfg Config

	v0, q0        []float64
	w, v, q       []float64
	inW, inV, inQ []float64

	// outW/outV/outQ hold the mass carried by each of host i's
	// messages this round, written in EmitRange and read by Deliver.
	outW, outV, outQ []float64
}

var _ gossip.ColExchanger = (*Columnar)(nil)

// NewColumnar returns the columnar population with data values vs, all
// hosts sharing cfg.
func NewColumnar(vs []float64, cfg Config) *Columnar {
	if cfg.Lambda < 0 || cfg.Lambda > 1 {
		panic("moments: Lambda outside [0,1]")
	}
	n := len(vs)
	c := &Columnar{
		cfg:  cfg,
		v0:   append([]float64(nil), vs...),
		q0:   make([]float64, n),
		w:    make([]float64, n),
		v:    make([]float64, n),
		q:    make([]float64, n),
		inW:  make([]float64, n),
		inV:  make([]float64, n),
		inQ:  make([]float64, n),
		outW: make([]float64, n),
		outV: make([]float64, n),
		outQ: make([]float64, n),
	}
	for i, v0 := range vs {
		c.q0[i] = v0 * v0
		c.w[i] = 1
		c.v[i] = v0
		c.q[i] = v0 * v0
	}
	return c
}

// Len implements gossip.ColumnarAgent.
func (c *Columnar) Len() int { return len(c.w) }

// Mass returns host id's current mass vector.
func (c *Columnar) Mass(id gossip.NodeID) Mass {
	return Mass{W: c.w[id], V: c.v[id], Q: c.q[id]}
}

// BeginRange implements gossip.ColumnarAgent: empty the inboxes.
func (c *Columnar) BeginRange(rc *gossip.ColRound, lo, hi int) {
	clear(c.inW[lo:hi])
	clear(c.inV[lo:hi])
	clear(c.inQ[lo:hi])
}

// EmitRange implements gossip.ColumnarAgent: the reverted mass is
// split between a random peer and self, with q treated like v but
// decaying toward v₀² — the same emission, in the same peer-then-self
// order, as Node.Emit.
func (c *Columnar) EmitRange(rc *gossip.ColRound, lo, hi int) {
	λ := c.cfg.Lambda
	out := rc.Out
	for _, i := range rc.Live(lo, hi) {
		halfW := ((1-λ)*c.w[i] + λ) / 2
		halfV := ((1-λ)*c.v[i] + λ*c.v0[i]) / 2
		halfQ := ((1-λ)*c.q[i] + λ*c.q0[i]) / 2
		peer, ok := rc.Pick(i)
		if !ok {
			// Isolated host: the whole reverted mass returns to self.
			c.outW[i] = 2 * halfW
			c.outV[i] = 2 * halfV
			c.outQ[i] = 2 * halfQ
			out = append(out, gossip.ColMsg{To: i, From: i})
			continue
		}
		c.outW[i] = halfW
		c.outV[i] = halfV
		c.outQ[i] = halfQ
		out = append(out,
			gossip.ColMsg{To: peer, From: i},
			gossip.ColMsg{To: i, From: i},
		)
	}
	rc.Out = out
}

// Deliver implements gossip.ColumnarAgent: fold each emitter's out
// mass into its destination's inbox columns, in emitter order.
func (c *Columnar) Deliver(rc *gossip.ColRound, msgs []gossip.ColMsg) {
	for _, m := range msgs {
		if !rc.Alive[m.To] {
			continue
		}
		c.inW[m.To] += c.outW[m.From]
		c.inV[m.To] += c.outV[m.From]
		c.inQ[m.To] += c.outQ[m.From]
	}
}

// EndRange implements gossip.ColumnarAgent: under push/pull the decay
// is applied to the exchanged mass once per round (Node.EndRound's
// PushPull branch); under push the inbox replaces the mass.
func (c *Columnar) EndRange(rc *gossip.ColRound, lo, hi int) {
	live := rc.Live(lo, hi)
	if c.cfg.PushPull {
		λ := c.cfg.Lambda
		for _, i := range live {
			c.w[i] = λ + (1-λ)*c.w[i]
			c.v[i] = λ*c.v0[i] + (1-λ)*c.v[i]
			c.q[i] = λ*c.q0[i] + (1-λ)*c.q[i]
		}
		return
	}
	for _, i := range live {
		c.w[i] = c.inW[i]
		c.v[i] = c.inV[i]
		c.q[i] = c.inQ[i]
	}
}

// ExchangePairs implements gossip.ColExchanger: pairwise mass
// averaging of all three components (Node.Exchange) as a flat loop.
func (c *Columnar) ExchangePairs(rc *gossip.ColRound, pairs []gossip.Pair) {
	for _, pr := range pairs {
		a, b := pr.A, pr.B
		mw := (c.w[a] + c.w[b]) / 2
		mv := (c.v[a] + c.v[b]) / 2
		mq := (c.q[a] + c.q[b]) / 2
		c.w[a], c.w[b] = mw, mw
		c.v[a], c.v[b] = mv, mv
		c.q[a], c.q[b] = mq, mq
	}
}

// Mean returns host id's running estimate of the network average.
func (c *Columnar) Mean(id gossip.NodeID) (float64, bool) {
	if c.w[id] <= 1e-12 {
		return 0, false
	}
	return c.v[id] / c.w[id], true
}

// Variance returns host id's running estimate of the network variance,
// clamped at zero exactly as Node.Variance.
func (c *Columnar) Variance(id gossip.NodeID) (float64, bool) {
	if c.w[id] <= 1e-12 {
		return 0, false
	}
	mean := c.v[id] / c.w[id]
	variance := c.q[id]/c.w[id] - mean*mean
	if variance < 0 {
		variance = 0
	}
	return variance, true
}

// StdDev returns host id's running estimate of the network standard
// deviation.
func (c *Columnar) StdDev(id gossip.NodeID) (float64, bool) {
	v, ok := c.Variance(id)
	if !ok {
		return 0, false
	}
	return math.Sqrt(v), true
}

// Estimate implements gossip.ColumnarAgent, reporting the standard
// deviation like Node.Estimate.
func (c *Columnar) Estimate(id gossip.NodeID) (float64, bool) { return c.StdDev(id) }
