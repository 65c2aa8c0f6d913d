package pushsum

import (
	"dynagg/internal/gossip"
)

// Columnar is the struct-of-arrays form of Push-Sum: one value owns
// the mass vectors of the entire population as dense columns and runs
// the round phases as flat loops (gossip.ColumnarAgent). Both gossip
// models are supported — push emission and the push/pull pair-batch
// exchange (gossip.ColExchanger). For the same seed and environment it
// is byte-identical to a population of *Node agents on the classic
// path — the emission order, PRNG draws, and mass fold order are the
// same, only the memory layout differs.
type Columnar struct {
	w0, v0   []float64 // construction-time mass, the Reset targets
	w, v     []float64
	inW, inV []float64
	est      []float64
	hasEst   []bool
}

var _ gossip.ColExchanger = (*Columnar)(nil)

// NewColumnar returns the columnar population with initial values vs
// and weights ws (parallel slices, one entry per host).
func NewColumnar(vs, ws []float64) *Columnar {
	if len(vs) != len(ws) {
		panic("pushsum: NewColumnar values and weights differ in length")
	}
	n := len(vs)
	c := &Columnar{
		w0:     append([]float64(nil), ws...),
		v0:     append([]float64(nil), vs...),
		w:      append([]float64(nil), ws...),
		v:      append([]float64(nil), vs...),
		inW:    make([]float64, n),
		inV:    make([]float64, n),
		est:    make([]float64, n),
		hasEst: make([]bool, n),
	}
	for i := 0; i < n; i++ {
		c.refreshEstimate(i)
	}
	return c
}

// Reset restores host id to its construction-time mass, discarding
// everything gossip accumulated — the columnar twin of Node.Reset.
func (c *Columnar) Reset(id gossip.NodeID) {
	i := int(id)
	c.w[i], c.v[i] = c.w0[i], c.v0[i]
	c.inW[i], c.inV[i] = 0, 0
	c.hasEst[i] = false
	c.refreshEstimate(i)
}

// NewColumnarAverage returns a columnar population configured for
// network averaging: weight 1 and the host's data value, the columnar
// twin of NewAverage.
func NewColumnarAverage(values []float64) *Columnar {
	ws := make([]float64, len(values))
	for i := range ws {
		ws[i] = 1
	}
	return NewColumnar(values, ws)
}

// Len implements gossip.ColumnarAgent.
func (c *Columnar) Len() int { return len(c.w) }

// Mass returns host id's current mass vector.
func (c *Columnar) Mass(id gossip.NodeID) Mass { return Mass{W: c.w[id], V: c.v[id]} }

// BeginRange implements gossip.ColumnarAgent: empty the inboxes.
func (c *Columnar) BeginRange(rc *gossip.ColRound, lo, hi int) {
	clear(c.inW[lo:hi])
	clear(c.inV[lo:hi])
}

// EmitRange implements gossip.ColumnarAgent: half the mass to a
// random peer, half to self, in the same peer-then-self order as
// Node.Emit so delivery folds stay byte-identical.
func (c *Columnar) EmitRange(rc *gossip.ColRound, lo, hi int) {
	out := rc.Out
	for _, id := range rc.Live(lo, hi) {
		peer, ok := rc.Pick(id)
		if !ok {
			// Isolated host: all mass returns to self.
			out = append(out, gossip.ColMsg{To: id, From: id, Mass: gossip.Mass{W: c.w[id], V: c.v[id]}})
			continue
		}
		half := gossip.Mass{W: c.w[id] / 2, V: c.v[id] / 2}
		out = append(out,
			gossip.ColMsg{To: peer, From: id, Mass: half},
			gossip.ColMsg{To: id, From: id, Mass: half},
		)
	}
	rc.Out = out
}

// Deliver implements gossip.ColumnarAgent: fold each mass into its
// destination's inbox columns, in emitter order.
func (c *Columnar) Deliver(rc *gossip.ColRound, msgs []gossip.ColMsg) {
	for _, m := range msgs {
		c.inW[m.To] += m.Mass.W
		c.inV[m.To] += m.Mass.V
	}
}

// EndRange implements gossip.ColumnarAgent. Under the push model a
// live host always receives at least its own message, so the
// classic path's received flag is constant true here. Under push/pull
// mass was updated in place by ExchangePairs and nothing was
// delivered, so only the estimate is refreshed — exactly the classic
// EndRound with received == false.
func (c *Columnar) EndRange(rc *gossip.ColRound, lo, hi int) {
	live := rc.Live(lo, hi)
	if rc.Model == gossip.PushPull {
		for _, id := range live {
			c.refreshEstimate(int(id))
		}
		return
	}
	for _, id := range live {
		c.w[id] = c.inW[id]
		c.v[id] = c.inV[id]
		c.refreshEstimate(int(id))
	}
}

// ExchangePairs implements gossip.ColExchanger: the push/pull
// half-difference transfer of Node.Exchange as a flat loop — after
// each pair both ends hold the mean of the two mass vectors.
func (c *Columnar) ExchangePairs(rc *gossip.ColRound, pairs []gossip.Pair) {
	for _, pr := range pairs {
		a, b := pr.A, pr.B
		mw := (c.w[a] + c.w[b]) / 2
		mv := (c.v[a] + c.v[b]) / 2
		c.w[a], c.w[b] = mw, mw
		c.v[a], c.v[b] = mv, mv
		c.refreshEstimate(int(a))
		c.refreshEstimate(int(b))
	}
}

// Estimate implements gossip.ColumnarAgent: v/w, once the weight is
// non-zero.
func (c *Columnar) Estimate(id gossip.NodeID) (float64, bool) {
	return c.est[id], c.hasEst[id]
}

func (c *Columnar) refreshEstimate(i int) {
	if c.w[i] > 1e-12 {
		c.est[i] = c.v[i] / c.w[i]
		c.hasEst[i] = true
	}
}
