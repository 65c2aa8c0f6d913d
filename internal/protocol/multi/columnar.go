package multi

import (
	"fmt"
	"sort"

	"dynagg/internal/gossip"
	"dynagg/internal/protocol/pushsumrevert"
	"dynagg/internal/protocol/sketchreset"
)

// sketchBit marks, in the From field's high bits, the bundle that
// carries the Count-Sketch-Reset matrix — the columnar plane's version
// of the classic payload's count slot. The engine only reads ColMsg.To,
// so From's upper bits are free for protocol routing.
const sketchBit gossip.NodeID = 1 << 30

// colAgg is one named aggregate's column set: the Push-Sum-Revert mass
// plane laid out population-wide, with outW/outV holding the mass each
// host's bundles carry this round (every bundle a host emits carries
// the same per-aggregate mass, so one slot per host suffices).
type colAgg struct {
	name       string
	w, v       []float64
	w0, mv0    []float64
	inW, inV   []float64
	outW, outV []float64
	est        []float64
	hasEst     []bool
}

// Columnar is the struct-of-arrays form of the multi-aggregate
// deployment: one columnar Count-Sketch-Reset population plus one mass
// column set per named aggregate, gossiped as per-destination bundles
// exactly like the classic Node — one ColMsg per bundle, masses read
// From-indexed out columns, the sketch rides the peer bundle
// (gossip.ColumnarAgent + gossip.ColExchanger). All aggregates share
// one peer draw per host per round (the classic sharedPick), so the
// PRNG stream, bundle count, and delivery folds are byte-identical to
// a population of *Node agents.
//
// FullTransfer averaging configs are refused, as by New: one shared
// peer would collapse the N parcels into one bundle.
type Columnar struct {
	avgCfg pushsumrevert.Config
	count  *sketchreset.Columnar
	aggs   []colAgg // sorted by name, the classic iteration order
}

var _ gossip.ColExchanger = (*Columnar)(nil)

// NewColumnar returns the columnar population. values maps aggregate
// names to per-host value columns; all columns must share one length.
func NewColumnar(values map[string][]float64, countCfg sketchreset.Config, avgCfg pushsumrevert.Config) *Columnar {
	if len(values) == 0 {
		panic("multi: no aggregates registered")
	}
	if err := avgCfg.Validate(); err != nil {
		panic(err)
	}
	refuseFullTransfer(avgCfg)
	if countCfg.Identifiers == 0 {
		countCfg.Identifiers = 1
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	n := len(values[names[0]])
	w0 := avgCfg.Weight
	if w0 == 0 {
		w0 = 1
	}
	c := &Columnar{
		avgCfg: avgCfg,
		count:  sketchreset.NewColumnar(n, countCfg),
		aggs:   make([]colAgg, len(names)),
	}
	for ai, name := range names {
		vs := values[name]
		if len(vs) != n {
			panic(fmt.Sprintf("multi: aggregate %q has %d values, want %d", name, len(vs), n))
		}
		a := colAgg{
			name:   name,
			w:      make([]float64, n),
			v:      make([]float64, n),
			w0:     make([]float64, n),
			mv0:    make([]float64, n),
			inW:    make([]float64, n),
			inV:    make([]float64, n),
			outW:   make([]float64, n),
			outV:   make([]float64, n),
			est:    make([]float64, n),
			hasEst: make([]bool, n),
		}
		for i, v0 := range vs {
			a.w0[i] = w0
			a.mv0[i] = w0 * v0
			a.w[i] = w0
			a.v[i] = w0 * v0
			a.est[i] = v0
			a.hasEst[i] = true
		}
		c.aggs[ai] = a
	}
	return c
}

// Len implements gossip.ColumnarAgent.
func (c *Columnar) Len() int { return c.count.Len() }

// Names returns the registered aggregate names in sorted order.
func (c *Columnar) Names() []string {
	out := make([]string, len(c.aggs))
	for i := range c.aggs {
		out[i] = c.aggs[i].name
	}
	return out
}

// Count exposes the shared columnar Count-Sketch-Reset population.
func (c *Columnar) Count() *sketchreset.Columnar { return c.count }

// BeginRange implements gossip.ColumnarAgent: age the sketch, empty
// every aggregate's inboxes.
func (c *Columnar) BeginRange(rc *gossip.ColRound, lo, hi int) {
	c.count.BeginRange(rc, lo, hi)
	for ai := range c.aggs {
		a := &c.aggs[ai]
		clear(a.inW[lo:hi])
		clear(a.inV[lo:hi])
	}
}

// EmitRange implements gossip.ColumnarAgent: one shared peer draw per
// host, every aggregate's mass written to its out columns, then the
// bundles appended in ascending-destination order — exactly the
// classic EmitAppend's sharedPick + sorted bundles.
func (c *Columnar) EmitRange(rc *gossip.ColRound, lo, hi int) {
	λ := c.avgCfg.Lambda
	out := rc.Out
	for _, id := range rc.Live(lo, hi) {
		i := int(id)
		peer, ok := rc.Pick(id)
		for ai := range c.aggs {
			a := &c.aggs[ai]
			var w, v float64
			switch {
			case !ok:
				// Isolated host: the whole mass returns home (the
				// classic sub-protocol's no-peer emission).
				if c.avgCfg.Adaptive {
					w, v = a.w[i], a.v[i]
				} else {
					w = (1-λ)*a.w[i] + λ*a.w0[i]
					v = (1-λ)*a.v[i] + λ*a.mv0[i]
				}
			case c.avgCfg.Adaptive:
				w, v = a.w[i]/2, a.v[i]/2
			default:
				w = ((1-λ)*a.w[i] + λ*a.w0[i]) / 2
				v = ((1-λ)*a.v[i] + λ*a.mv0[i]) / 2
			}
			a.outW[i] = w
			a.outV[i] = v
		}
		if !ok {
			out = append(out, gossip.ColMsg{To: id, From: id})
			continue
		}
		c.count.Snapshot(id)
		// Two bundles, ascending destination (the classic sort); the
		// sketch rides the peer bundle.
		if peer < id {
			out = append(out,
				gossip.ColMsg{To: peer, From: id | sketchBit},
				gossip.ColMsg{To: id, From: id},
			)
		} else {
			out = append(out,
				gossip.ColMsg{To: id, From: id},
				gossip.ColMsg{To: peer, From: id | sketchBit},
			)
		}
	}
	rc.Out = out
}

// Deliver implements gossip.ColumnarAgent: unfold each bundle — every
// aggregate's mass from the emitter's out columns, plus the sketch
// min-merge when the bundle carries it.
func (c *Columnar) Deliver(rc *gossip.ColRound, msgs []gossip.ColMsg) {
	λ := c.avgCfg.Lambda
	adaptive := c.avgCfg.Adaptive
	for _, m := range msgs {
		if !rc.Alive[m.To] {
			continue
		}
		to := m.To
		from := m.From &^ sketchBit
		if m.From&sketchBit != 0 {
			c.count.DeliverFrom(to, from)
		}
		for ai := range c.aggs {
			a := &c.aggs[ai]
			if adaptive {
				a.inW[to] += (1-λ)*a.outW[from] + (λ/2)*a.w0[to]
				a.inV[to] += (1-λ)*a.outV[from] + (λ/2)*a.mv0[to]
			} else {
				a.inW[to] += a.outW[from]
				a.inV[to] += a.outV[from]
			}
		}
	}
}

// EndRange implements gossip.ColumnarAgent.
func (c *Columnar) EndRange(rc *gossip.ColRound, lo, hi int) {
	c.count.EndRange(rc, lo, hi)
	live := rc.Live(lo, hi)
	λ := c.avgCfg.Lambda
	for ai := range c.aggs {
		a := &c.aggs[ai]
		if c.avgCfg.PushPull {
			// Reversion decay once per round on the exchanged mass
			// (pushsumrevert.Node.endRoundPull).
			for _, i := range live {
				a.w[i] = λ*a.w0[i] + (1-λ)*a.w[i]
				a.v[i] = λ*a.mv0[i] + (1-λ)*a.v[i]
				a.refreshEstimate(int(i))
			}
			continue
		}
		for _, i := range live {
			a.w[i] = a.inW[i]
			a.v[i] = a.inV[i]
			a.refreshEstimate(int(i))
		}
	}
}

// ExchangePairs implements gossip.ColExchanger: the sketch and every
// aggregate exchange over the same pairs (sub-states are disjoint, so
// batch-per-sub equals the classic per-pair interleaving).
func (c *Columnar) ExchangePairs(rc *gossip.ColRound, pairs []gossip.Pair) {
	c.count.ExchangePairs(rc, pairs)
	for ai := range c.aggs {
		a := &c.aggs[ai]
		for _, pr := range pairs {
			x, y := pr.A, pr.B
			mw := (a.w[x] + a.w[y]) / 2
			mv := (a.v[x] + a.v[y]) / 2
			a.w[x], a.w[y] = mw, mw
			a.v[x], a.v[y] = mv, mv
		}
	}
}

func (a *colAgg) refreshEstimate(i int) {
	if a.w[i] > 1e-12 {
		a.est[i] = a.v[i] / a.w[i]
		a.hasEst[i] = true
	}
}

// Size returns host id's running network-size estimate.
func (c *Columnar) Size(id gossip.NodeID) (float64, bool) { return c.count.Estimate(id) }

// Average returns host id's running average estimate for one named
// aggregate.
func (c *Columnar) Average(name string, id gossip.NodeID) (float64, bool) {
	for ai := range c.aggs {
		if c.aggs[ai].name == name {
			return c.aggs[ai].est[id], c.aggs[ai].hasEst[id]
		}
	}
	return 0, false
}

// Sum returns host id's running sum estimate for one named aggregate:
// average × network size.
func (c *Columnar) Sum(name string, id gossip.NodeID) (float64, bool) {
	avg, ok1 := c.Average(name, id)
	size, ok2 := c.Size(id)
	if !ok1 || !ok2 {
		return 0, false
	}
	return avg * size, true
}

// Estimate implements gossip.ColumnarAgent, reporting the network-size
// estimate like Node.Estimate.
func (c *Columnar) Estimate(id gossip.NodeID) (float64, bool) { return c.Size(id) }
