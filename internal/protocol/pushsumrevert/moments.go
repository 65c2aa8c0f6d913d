package pushsumrevert

import (
	"fmt"
	"math"
	"slices"

	"dynagg/internal/gossip"
)

// MomentsMass is a NewMoments host's payload: its (w, v) mass and its
// share of the second value q.
type MomentsMass struct {
	Mass
	Q float64
}

// momentState is a NewMoments host's second value q, q₀ = w₀·v₀², folded
// exactly like v; out is EmitAppend's scratch payload.
type momentState struct {
	q0, q, inQ float64
	out        MomentsMass
}

// NewMoments returns a Push-Sum-Revert host with data value v0 that
// also gossips q under the same weight, λ, peers and message order, so
// its Estimate is the network's standard deviation (§II names it among
// the target aggregates). Full-Transfer and Adaptive are refused.
func NewMoments(id gossip.NodeID, v0 float64, cfg Config) *Node {
	checkMoments(cfg)
	n := New(id, v0, cfg)
	n.mom = &momentState{q0: n.mv0 * v0, q: n.mv0 * v0}
	return n
}

// NewColumnarMoments is NewMoments for a columnar population. q travels
// in From-indexed outQ columns that EmitRange writes and Deliver and
// AppendWire read.
func NewColumnarMoments(vs []float64, cfg Config) *Columnar {
	checkMoments(cfg)
	c := NewColumnar(vs, cfg)
	c.q0 = make([]float64, len(vs))
	for i, v0 := range vs {
		c.q0[i] = c.mv0[i] * v0
	}
	c.q = slices.Clone(c.q0)
	c.inQ = make([]float64, len(vs))
	c.outQ = make([]float64, len(vs))
	return c
}

func checkMoments(cfg Config) {
	if cfg.FullTransfer || cfg.Adaptive {
		panic(fmt.Errorf("pushsumrevert: a moments host supports neither FullTransfer nor Adaptive"))
	}
}

// Moments returns a NewMoments host's running estimates of the network
// mean and variance; ok is false while the host holds no weight.
func (n *Node) Moments() (mean, variance float64, ok bool) {
	return moments(n.w, n.v, n.mom.q)
}

// moments derives mean and variance from one host's (w, v, q), the
// variance clamped at zero: transient states can drive the raw moment
// estimate slightly negative.
func moments(w, v, q float64) (mean, variance float64, ok bool) {
	if w <= 1e-12 {
		return 0, 0, false
	}
	mean = v / w
	variance = q/w - mean*mean
	if variance < 0 {
		variance = 0
	}
	return mean, variance, true
}

// stdDev is a moments host's Estimate.
func stdDev(w, v, q float64) (float64, bool) {
	_, variance, ok := moments(w, v, q)
	return math.Sqrt(variance), ok
}

// payload returns the round's scratch payload: n.out, or for a moments
// host n.out with q's share, whole for an isolated host.
func (n *Node) payload(whole bool) any {
	m := n.mom
	if m == nil {
		return &n.out
	}
	λ := n.cfg.Lambda
	q := ((1-λ)*m.q + λ*m.q0) / 2
	if whole {
		q *= 2
	}
	m.out = MomentsMass{Mass: n.out, Q: q}
	return &m.out
}

// emitQ writes each live host's q share to outQ, given the messages the
// basic emit loop appended: a host whose second message is also its own
// sent half to a peer; an isolated host sent one message with the whole.
func (c *Columnar) emitQ(live []gossip.NodeID, msgs []gossip.ColMsg) {
	λ := c.cfg.Lambda
	j := 0
	for _, i := range live {
		half := ((1-λ)*c.q[i] + λ*c.q0[i]) / 2
		if j+1 < len(msgs) && msgs[j+1].From == i {
			c.outQ[i] = half
			j += 2
			continue
		}
		c.outQ[i] = 2 * half
		j++
	}
}
