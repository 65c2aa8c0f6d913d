package pushsumrevert

import (
	"dynagg/internal/gossip"
)

// Columnar is the struct-of-arrays form of Push-Sum-Revert: one value
// owns the whole population's mass vectors, reversion targets, and
// Full-Transfer windows as dense columns (gossip.ColumnarAgent). All
// variants are supported — basic λ reversion, Adaptive
// (indegree-scaled) reversion, Full-Transfer, PushPull (pairwise
// exchanges via gossip.ColExchanger, reversion applied once per round
// at range end) and NewColumnarMoments' second value — and each is
// byte-identical to a population of *Node agents on the classic path.
type Columnar struct {
	cfg Config

	v0, w0, mv0 []float64
	w, v        []float64
	inW, inV    []float64
	inMsgs      []int32

	// Full-Transfer estimate windows, flattened host-major: host i's
	// ring buffer is histW[i*Window : (i+1)*Window].
	histW, histV     []float64
	histPos, histLen []int32

	est    []float64
	hasEst []bool

	// The second value of NewColumnarMoments, nil otherwise: each
	// kernel tests it once per call. outQ holds the q carried by each
	// of host i's messages this round, written by EmitRange.
	q0, q, inQ, outQ []float64
}

var _ gossip.ColExchanger = (*Columnar)(nil)

// NewColumnar returns the columnar population with data values vs,
// all hosts sharing cfg.
func NewColumnar(vs []float64, cfg Config) *Columnar {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := len(vs)
	w0 := cfg.Weight
	if w0 == 0 {
		w0 = 1
	}
	c := &Columnar{
		cfg:    cfg,
		v0:     append([]float64(nil), vs...),
		w0:     make([]float64, n),
		mv0:    make([]float64, n),
		w:      make([]float64, n),
		v:      make([]float64, n),
		inW:    make([]float64, n),
		inV:    make([]float64, n),
		inMsgs: make([]int32, n),
		est:    make([]float64, n),
		hasEst: make([]bool, n),
	}
	if cfg.FullTransfer {
		c.histW = make([]float64, n*cfg.Window)
		c.histV = make([]float64, n*cfg.Window)
		c.histPos = make([]int32, n)
		c.histLen = make([]int32, n)
	}
	for i := 0; i < n; i++ {
		c.w0[i] = w0
		c.mv0[i] = w0 * vs[i]
		c.w[i] = w0
		c.v[i] = w0 * vs[i]
		c.est[i] = vs[i]
		c.hasEst[i] = true
	}
	return c
}

// Len implements gossip.ColumnarAgent.
func (c *Columnar) Len() int { return len(c.w) }

// Config returns the population's configuration.
func (c *Columnar) Config() Config { return c.cfg }

// Mass returns host id's current mass vector.
func (c *Columnar) Mass(id gossip.NodeID) Mass { return Mass{W: c.w[id], V: c.v[id]} }

// Reset restores host id to its initial endowment, discarding held
// mass and the Full-Transfer window — the columnar twin of Node.Reset.
func (c *Columnar) Reset(id gossip.NodeID) {
	i := int(id)
	c.w[i], c.v[i] = c.w0[i], c.mv0[i]
	c.inW[i], c.inV[i] = 0, 0
	c.inMsgs[i] = 0
	if c.cfg.FullTransfer {
		lo := i * c.cfg.Window
		for j := lo; j < lo+c.cfg.Window; j++ {
			c.histW[j], c.histV[j] = 0, 0
		}
		c.histPos[i], c.histLen[i] = 0, 0
	}
	if c.q != nil {
		c.q[i], c.inQ[i] = c.q0[i], 0
	}
	c.est[i], c.hasEst[i] = c.v0[i], true
}

// BeginRange implements gossip.ColumnarAgent: empty the inboxes.
func (c *Columnar) BeginRange(rc *gossip.ColRound, lo, hi int) {
	clear(c.inW[lo:hi])
	clear(c.inV[lo:hi])
	clear(c.inMsgs[lo:hi])
	if c.inQ != nil {
		clear(c.inQ[lo:hi])
	}
}

// EmitRange implements gossip.ColumnarAgent: the variant-specific
// emissions of Node.Emit as one flat loop, same intra-host envelope
// order.
func (c *Columnar) EmitRange(rc *gossip.ColRound, lo, hi int) {
	λ := c.cfg.Lambda
	out := rc.Out
	switch {
	case c.cfg.FullTransfer:
		N := c.cfg.Parcels
		for _, id := range rc.Live(lo, hi) {
			parcel := gossip.Mass{
				W: ((1-λ)*c.w[id] + λ*c.w0[id]) / float64(N),
				V: ((1-λ)*c.v[id] + λ*c.mv0[id]) / float64(N),
			}
			for j := 0; j < N; j++ {
				if peer, ok := rc.Pick(id); ok {
					out = append(out, gossip.ColMsg{To: peer, From: id, Mass: parcel})
				} else {
					// No reachable peer: this parcel stays home rather
					// than evaporating.
					out = append(out, gossip.ColMsg{To: id, From: id, Mass: parcel})
				}
			}
		}
	case c.cfg.Adaptive:
		// Reversion is applied on receipt, scaled by indegree; the
		// message itself is plain Push-Sum mass.
		for _, id := range rc.Live(lo, hi) {
			peer, ok := rc.Pick(id)
			if !ok {
				out = append(out, gossip.ColMsg{To: id, From: id, Mass: gossip.Mass{W: c.w[id], V: c.v[id]}})
				continue
			}
			half := gossip.Mass{W: c.w[id] / 2, V: c.v[id] / 2}
			out = append(out,
				gossip.ColMsg{To: peer, From: id, Mass: half},
				gossip.ColMsg{To: id, From: id, Mass: half},
			)
		}
	default:
		// Basic: the reverted mass is split between peer and self.
		start := len(out)
		live := rc.Live(lo, hi)
		for _, id := range live {
			half := gossip.Mass{
				W: ((1-λ)*c.w[id] + λ*c.w0[id]) / 2,
				V: ((1-λ)*c.v[id] + λ*c.mv0[id]) / 2,
			}
			peer, ok := rc.Pick(id)
			if !ok {
				out = append(out, gossip.ColMsg{To: id, From: id,
					Mass: gossip.Mass{W: 2 * half.W, V: 2 * half.V}})
				continue
			}
			out = append(out,
				gossip.ColMsg{To: peer, From: id, Mass: half},
				gossip.ColMsg{To: id, From: id, Mass: half},
			)
		}
		if c.q != nil {
			c.emitQ(live, out[start:])
		}
	}
	rc.Out = out
}

// Deliver implements gossip.ColumnarAgent: the variant-specific
// receive fold of Node.Receive over the message column, skipping mass
// addressed to a host that is dead this round.
func (c *Columnar) Deliver(rc *gossip.ColRound, msgs []gossip.ColMsg) {
	alive := rc.Alive
	if c.inQ != nil {
		for _, m := range msgs {
			if alive[m.To] {
				c.inQ[m.To] += c.outQ[m.From]
			}
		}
	}
	if c.cfg.Adaptive {
		// §III-A: add λ/2 of the initial mass per message received,
		// damping the received mass by (1-λ).
		λ := c.cfg.Lambda
		for _, m := range msgs {
			if !alive[m.To] {
				continue
			}
			c.inW[m.To] += (1-λ)*m.Mass.W + (λ/2)*c.w0[m.To]
			c.inV[m.To] += (1-λ)*m.Mass.V + (λ/2)*c.mv0[m.To]
			c.inMsgs[m.To]++
		}
		return
	}
	for _, m := range msgs {
		if !alive[m.To] {
			continue
		}
		c.inW[m.To] += m.Mass.W
		c.inV[m.To] += m.Mass.V
		c.inMsgs[m.To]++
	}
}

// deliverMsg folds a single message: DeliverWire's fold of one
// decoded mass.
func (c *Columnar) deliverMsg(m gossip.ColMsg) {
	if c.cfg.Adaptive {
		λ := c.cfg.Lambda
		c.inW[m.To] += (1-λ)*m.Mass.W + (λ/2)*c.w0[m.To]
		c.inV[m.To] += (1-λ)*m.Mass.V + (λ/2)*c.mv0[m.To]
		c.inMsgs[m.To]++
		return
	}
	c.inW[m.To] += m.Mass.W
	c.inV[m.To] += m.Mass.V
	c.inMsgs[m.To]++
}

// ExchangePairs implements gossip.ColExchanger: the pairwise mass
// averaging of Node.Exchange as a flat loop. As on the classic path,
// the reversion decay is applied once per round in EndRange, not per
// exchange.
func (c *Columnar) ExchangePairs(rc *gossip.ColRound, pairs []gossip.Pair) {
	for _, pr := range pairs {
		a, b := pr.A, pr.B
		mw := (c.w[a] + c.w[b]) / 2
		mv := (c.v[a] + c.v[b]) / 2
		c.w[a], c.w[b] = mw, mw
		c.v[a], c.v[b] = mv, mv
	}
	if q := c.q; q != nil {
		for _, pr := range pairs {
			mq := (q[pr.A] + q[pr.B]) / 2
			q[pr.A], q[pr.B] = mq, mq
		}
	}
}

// EndRange implements gossip.ColumnarAgent.
func (c *Columnar) EndRange(rc *gossip.ColRound, lo, hi int) {
	live := rc.Live(lo, hi)
	if c.cfg.PushPull {
		// Mass was updated in place by ExchangePairs; apply the
		// reversion decay exactly once per round (Node.endRoundPull).
		λ := c.cfg.Lambda
		for _, i := range live {
			c.w[i] = λ*c.w0[i] + (1-λ)*c.w[i]
			c.v[i] = λ*c.mv0[i] + (1-λ)*c.v[i]
			c.refreshEstimate(int(i))
		}
		if q := c.q; q != nil {
			for _, i := range live {
				q[i] = λ*c.q0[i] + (1-λ)*q[i]
			}
		}
		return
	}
	if c.cfg.FullTransfer {
		W := int32(c.cfg.Window)
		for _, i := range live {
			// The host keeps only what arrived; rounds with no
			// arrivals leave it empty-handed until the next delivery.
			c.w[i] = c.inW[i]
			c.v[i] = c.inV[i]
			if c.inMsgs[i] > 0 && c.inW[i] > 0 {
				base := int32(i) * W
				pos := c.histPos[i]
				c.histW[base+pos] = c.inW[i]
				c.histV[base+pos] = c.inV[i]
				c.histPos[i] = (pos + 1) % W
				if c.histLen[i] < W {
					c.histLen[i]++
				}
			}
			c.refreshWindowEstimate(int(i))
		}
		return
	}
	for _, i := range live {
		c.w[i] = c.inW[i]
		c.v[i] = c.inV[i]
		c.refreshEstimate(int(i))
	}
	if c.q != nil {
		for _, i := range live {
			c.q[i] = c.inQ[i]
		}
	}
}

// Estimate implements gossip.ColumnarAgent. A moments population
// reports the standard deviation, computed on read.
func (c *Columnar) Estimate(id gossip.NodeID) (float64, bool) {
	if c.q != nil {
		return stdDev(c.w[id], c.v[id], c.q[id])
	}
	return c.est[id], c.hasEst[id]
}

func (c *Columnar) refreshEstimate(i int) {
	if c.w[i] > 1e-12 {
		c.est[i] = c.v[i] / c.w[i]
		c.hasEst[i] = true
	}
}

func (c *Columnar) refreshWindowEstimate(i int) {
	base := i * c.cfg.Window
	var sw, sv float64
	for j := 0; j < int(c.histLen[i]); j++ {
		sw += c.histW[base+j]
		sv += c.histV[base+j]
	}
	if sw > 1e-12 {
		c.est[i] = sv / sw
		c.hasEst[i] = true
	}
}
