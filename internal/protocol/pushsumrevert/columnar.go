package pushsumrevert

import (
	"fmt"
	"math"
	"slices"

	"dynagg/internal/gossip"
)

// hosts is Push-Sum-Revert's per-host state as columns indexed by host;
// its methods are the per-host steps, each written once: reverted, the
// shares (share, shareQ, rawShare, parcel), the folds (fold,
// foldAdaptive, foldMoments), the round end (settle, record), exchange,
// the estimates and Reset. A Columnar's columns are slices and its
// kernels loops over the steps; a Node's are one-element arrays, held
// inline in one allocation.
type hosts[F []float64 | [1]float64, B []bool | [1]bool] struct {
	cfg Config
	w0  float64 // every host's initial weight: cfg's, or 0 for an observer

	inW, inV  F
	w, v, est F
	hasEst    B
	v0        F

	*window // Full-Transfer's, nil otherwise
	*moment // a moments host's, nil otherwise
}

// window holds the Full-Transfer estimate windows, host i's ring buffer
// at histW[i*Window : (i+1)*Window].
type window struct {
	histW, histV     []float64
	histPos, histLen []int32
}

// moment holds the second value q; outQ[i] is the q of host i's
// messages this round.
type moment struct {
	q0, q, inQ, outQ []float64
}

// init sets up hosts of data values vs and initial weight w0 in the
// empty columns in place, allocating the variant's own.
func (c *hosts[F, B]) init(vs []float64, w0 float64, cfg Config, moments bool) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if moments && (cfg.FullTransfer || cfg.Adaptive) {
		panic(fmt.Errorf("pushsumrevert: a moments host supports neither FullTransfer nor Adaptive"))
	}
	n := len(vs)
	c.cfg, c.w0 = cfg, w0
	if cfg.FullTransfer {
		W := cfg.Window
		f, in := make([]float64, 2*W*n), make([]int32, 2*n)
		c.window = &window{histW: f[: W*n : W*n], histV: f[W*n:], histPos: in[:n:n], histLen: in[n:]}
	}
	if moments {
		f := make([]float64, 4*n)
		c.moment = &moment{q0: f[:n:n], q: f[n : 2*n : 2*n], inQ: f[2*n : 3*n : 3*n], outQ: f[3*n:]}
	}
	for i, v0 := range vs {
		c.v0[i] = v0
		if moments {
			c.q0[i] = c.w0 * v0 * v0
		}
		c.restore(gossip.NodeID(i))
	}
}

// Reset restores host id to its freshly built state, as a crashed
// process restarting from its data value: held and in-flight mass is
// discarded, (w₀, w₀·v₀) re-sourced and the Full-Transfer window
// emptied. An observer (w₀ = v₀ = 0) resets to no estimate.
func (c *hosts[F, B]) Reset(id gossip.NodeID) {
	c.emptyInbox(id)
	if c.window != nil {
		c.histPos[id], c.histLen[id] = 0, 0
	}
	c.restore(id)
}

// restore gives host i its initial mass and estimate back.
func (c *hosts[F, B]) restore(i gossip.NodeID) {
	c.w[i], c.v[i] = c.w0, c.w0*c.v0[i]
	if c.moment != nil {
		c.q[i] = c.q0[i]
	}
	c.est[i], c.hasEst[i] = c.v0[i], c.w0 > 0
}

// Len implements gossip.ColumnarAgent.
func (c *hosts[F, B]) Len() int { return len(c.w) }

// Config returns the hosts' configuration.
func (c *hosts[F, B]) Config() Config { return c.cfg }

// Mass returns host id's current mass vector.
func (c *hosts[F, B]) Mass(id gossip.NodeID) Mass { return Mass{W: c.w[id], V: c.v[id]} }

// Estimate implements gossip.ColumnarAgent. A moments host reports the
// standard deviation, computed on read.
func (c *hosts[F, B]) Estimate(id gossip.NodeID) (float64, bool) {
	if c.moment != nil {
		_, variance, ok := moments(c.w[id], c.v[id], c.q[id])
		return math.Sqrt(variance), ok
	}
	return c.est[id], c.hasEst[id]
}

// emptyInbox empties host i's inbox (Reset; end empties it as it reads).
func (c *hosts[F, B]) emptyInbox(i gossip.NodeID) {
	c.inW[i], c.inV[i] = 0, 0
	if c.moment != nil {
		c.inQ[i] = 0
	}
}

// revert is the §III reversion of x toward its initial mass x0.
func revert(x, x0, λ float64) float64 { return (1-λ)*x + λ*x0 }

// reverted is host i's mass after the reversion step (w₀·v₀ is v's
// target).
func (c *hosts[F, B]) reverted(i gossip.NodeID) gossip.Mass {
	λ := c.cfg.Lambda
	return gossip.Mass{W: revert(c.w[i], c.w0, λ), V: revert(c.v[i], c.w0*c.v0[i], λ)}
}

// share is host i's basic outgoing share (Figure 3): half its reverted
// mass, to the peer and to itself; a host with no peer sends itself
// the whole, double(share).
func (c *hosts[F, B]) share(i gossip.NodeID) gossip.Mass { return divide(c.reverted(i), 2) }

func divide(m gossip.Mass, d float64) gossip.Mass { return gossip.Mass{W: m.W / d, V: m.V / d} }

func double(half gossip.Mass) gossip.Mass { return gossip.Mass{W: 2 * half.W, V: 2 * half.V} }

// shareQ writes to outQ[i] the q moments host i sends with its share.
func (c *hosts[F, B]) shareQ(i gossip.NodeID, whole bool) {
	half := revert(c.q[i], c.q0[i], c.cfg.Lambda) / 2
	if whole {
		half *= 2
	}
	c.outQ[i] = half
}

// rawShare is Adaptive host i's share: half its unreverted mass, or the
// whole for a host with no peer (it reverts on receipt).
func (c *hosts[F, B]) rawShare(i gossip.NodeID, whole bool) gossip.Mass {
	if whole {
		return gossip.Mass{W: c.w[i], V: c.v[i]}
	}
	return gossip.Mass{W: c.w[i] / 2, V: c.v[i] / 2}
}

// parcel is one of Full-Transfer host i's Parcels equal shares of its
// reverted mass (Figure 4); it retains nothing.
func (c *hosts[F, B]) parcel(i gossip.NodeID) gossip.Mass {
	return divide(c.reverted(i), float64(c.cfg.Parcels))
}

// fold adds one received mass to host i's inbox.
func (c *hosts[F, B]) fold(i gossip.NodeID, m gossip.Mass) {
	c.inW[i] += m.W
	c.inV[i] += m.V
}

// foldAdaptive is the Adaptive fold (§III-A): the mass damped by (1−λ)
// plus λ/2 of the initial mass per message, λ per round on average.
func (c *hosts[F, B]) foldAdaptive(i gossip.NodeID, m gossip.Mass) {
	λ := c.cfg.Lambda
	c.fold(i, gossip.Mass{W: (1-λ)*m.W + (λ/2)*c.w0, V: (1-λ)*m.V + (λ/2)*(c.w0*c.v0[i])})
}

func (c *hosts[F, B]) foldMoments(i gossip.NodeID, m gossip.Mass, q float64) {
	c.fold(i, m)
	c.inQ[i] += q
}

// receive folds one message for host to (q is its q share).
func (c *hosts[F, B]) receive(to gossip.NodeID, m gossip.Mass, q float64) {
	switch {
	case c.cfg.Adaptive:
		c.foldAdaptive(to, m)
	case c.moment != nil:
		c.foldMoments(to, m, q)
	default:
		c.fold(to, m)
	}
}

// end settles each host of live at round end, emptying the inbox it
// reads (push/pull fills none), so that no round begins by clearing one.
// pushPull selects the push/pull round end.
func (c *hosts[F, B]) end(live []gossip.NodeID, pushPull bool) {
	switch {
	case pushPull:
		// Exchange moved the mass; the reversion applies once a round.
		for _, i := range live {
			c.settle(i, c.reverted(i))
		}
		if c.moment != nil {
			λ := c.cfg.Lambda
			for _, i := range live {
				c.q[i] = revert(c.q[i], c.q0[i], λ)
			}
		}
	case c.cfg.FullTransfer:
		// The host keeps only what arrived: nothing unless a fold raised inW.
		for _, i := range live {
			c.w[i], c.v[i] = c.inW[i], c.inV[i]
			if c.inW[i] > 0 {
				c.record(i)
			}
			c.inW[i], c.inV[i] = 0, 0
			c.windowEstimate(i)
		}
	default:
		for _, i := range live {
			c.settle(i, gossip.Mass{W: c.inW[i], V: c.inV[i]})
			c.inW[i], c.inV[i] = 0, 0
		}
		if c.moment != nil {
			for _, i := range live {
				c.q[i], c.inQ[i] = c.inQ[i], 0
			}
		}
	}
}

// settle sets host i's mass to m and refreshes its estimate.
func (c *hosts[F, B]) settle(i gossip.NodeID, m gossip.Mass) {
	c.w[i], c.v[i] = m.W, m.V
	c.estimate(i, m.W, m.V)
}

// record enters host i's inbox in its Full-Transfer window, the ring
// buffer of the last Window rounds in which mass arrived.
func (c *hosts[F, B]) record(i gossip.NodeID) {
	W := c.cfg.Window
	j := int(i)*W + int(c.histPos[i])
	c.histW[j], c.histV[j] = c.inW[i], c.inV[i]
	c.histPos[i] = (c.histPos[i] + 1) % int32(W)
	if int(c.histLen[i]) < W {
		c.histLen[i]++
	}
}

// windowEstimate refreshes Full-Transfer host i's estimate from its
// window.
func (c *hosts[F, B]) windowEstimate(i gossip.NodeID) {
	base := int(i) * c.cfg.Window
	var sw, sv float64
	for j := range int(c.histLen[i]) {
		sw += c.histW[base+j]
		sv += c.histV[base+j]
	}
	c.estimate(i, sw, sv)
}

// estimate sets host i's estimate to v/w while w holds weight.
func (c *hosts[F, B]) estimate(i gossip.NodeID, w, v float64) {
	if w > 1e-12 {
		c.est[i] = v / w
		c.hasEst[i] = true
	}
}

// exchange averages the mass of host i and host j of b pairwise (Karp
// et al.); moments hosts average their q alike.
func (c *hosts[F, B]) exchange(i gossip.NodeID, b *hosts[F, B], j gossip.NodeID) {
	average(&c.w[i], &b.w[j])
	average(&c.v[i], &b.v[j])
}

func average(x, y *float64) { *x = (*x + *y) / 2; *y = *x }

// refuseExchange panics for the push-model variants, which have no
// pairwise exchange.
func (c *hosts[F, B]) refuseExchange() {
	switch {
	case c.cfg.FullTransfer:
		panic("pushsumrevert: FullTransfer runs under the push model only, not push/pull")
	case c.cfg.Adaptive:
		panic("pushsumrevert: Adaptive runs under the push model only, not push/pull")
	}
}

// Columnar is Push-Sum-Revert over a whole population
// (gossip.ColumnarAgent, gossip.ColExchanger), every variant supported.
// Its kernels are loops calling the per-host steps a Node calls.
type Columnar struct {
	hosts[[]float64, []bool]
}

var _ gossip.ColExchanger = (*Columnar)(nil)

// NewColumnar returns the columnar population with data values vs,
// all hosts sharing cfg.
func NewColumnar(vs []float64, cfg Config) *Columnar { return newColumnar(vs, weight(cfg), cfg, false) }

func newColumnar(vs []float64, w0 float64, cfg Config, moments bool) *Columnar {
	n := len(vs)
	f := make([]float64, 6*n)
	col := func(k int) []float64 { return f[k*n : (k+1)*n : (k+1)*n] }
	c := &Columnar{hosts[[]float64, []bool]{
		inW: col(0), inV: col(1), w: col(2), v: col(3), est: col(4), v0: col(5),
		hasEst: make([]bool, n),
	}}
	c.init(vs, w0, cfg, moments)
	return c
}

// weight is cfg's initial weight w₀: Weight, or 1 when unset.
func weight(cfg Config) float64 {
	if cfg.Weight == 0 {
		return 1
	}
	return cfg.Weight
}

// BeginRange implements gossip.ColumnarAgent: EndRange empties the inboxes.
func (c *Columnar) BeginRange(rc *gossip.ColRound, lo, hi int) {}

// EmitRange implements gossip.ColumnarAgent: each live host's shares,
// one message per peer pick, in Node.EmitAppend's envelope order. A
// host sends at most Parcels messages under Full-Transfer and two
// otherwise, reserved before the first append.
func (c *Columnar) EmitRange(rc *gossip.ColRound, lo, hi int) {
	live := rc.Live(lo, hi)
	fanout := 2
	if c.cfg.FullTransfer {
		fanout = c.cfg.Parcels
	}
	out := slices.Grow(rc.Out, fanout*len(live))
	switch {
	case c.cfg.FullTransfer:
		for _, id := range live {
			parcel := c.parcel(id)
			for range c.cfg.Parcels {
				to, ok := rc.Pick(id)
				if !ok {
					// No reachable peer: this parcel stays home rather
					// than evaporating.
					to = id
				}
				out = append(out, gossip.ColMsg{To: to, From: id, Mass: parcel})
			}
		}
	case c.cfg.Adaptive:
		for _, id := range live {
			peer, ok := rc.Pick(id)
			if !ok {
				out = append(out, gossip.ColMsg{To: id, From: id, Mass: c.rawShare(id, true)})
				continue
			}
			half := c.rawShare(id, false)
			out = append(out,
				gossip.ColMsg{To: peer, From: id, Mass: half},
				gossip.ColMsg{To: id, From: id, Mass: half},
			)
		}
	default:
		moments := c.moment != nil
		for _, id := range live {
			peer, ok := rc.Pick(id)
			if moments {
				c.shareQ(id, !ok)
			}
			if !ok {
				out = append(out, gossip.ColMsg{To: id, From: id, Mass: double(c.share(id))})
				continue
			}
			half := c.share(id)
			out = append(out,
				gossip.ColMsg{To: peer, From: id, Mass: half},
				gossip.ColMsg{To: id, From: id, Mass: half},
			)
		}
	}
	rc.Out = out
}

// Deliver implements gossip.ColumnarAgent: the variant's receive fold
// over the message column, skipping mass addressed to a host that is
// dead this round.
func (c *Columnar) Deliver(rc *gossip.ColRound, msgs []gossip.ColMsg) {
	alive := rc.Alive
	switch {
	case c.cfg.Adaptive:
		for _, m := range msgs {
			if alive[m.To] {
				c.foldAdaptive(m.To, m.Mass)
			}
		}
	case c.moment != nil:
		for _, m := range msgs {
			if alive[m.To] {
				c.foldMoments(m.To, m.Mass, c.outQ[m.From])
			}
		}
	default:
		for _, m := range msgs {
			if alive[m.To] {
				c.fold(m.To, m.Mass)
			}
		}
	}
}

// ExchangePairs implements gossip.ColExchanger: the pairwise mass
// averaging of every pair in order. The reversion decay is applied once
// per round in EndRange, not per exchange. Full-Transfer and Adaptive
// populations refuse it.
func (c *Columnar) ExchangePairs(rc *gossip.ColRound, pairs []gossip.Pair) {
	c.refuseExchange()
	for _, pr := range pairs {
		c.exchange(pr.A, &c.hosts, pr.B)
	}
	if c.moment != nil {
		for _, pr := range pairs {
			average(&c.q[pr.A], &c.q[pr.B])
		}
	}
}

// EndRange implements gossip.ColumnarAgent: the round end of the
// engine's model.
func (c *Columnar) EndRange(rc *gossip.ColRound, lo, hi int) {
	c.end(rc.Live(lo, hi), rc.Model == gossip.PushPull)
}
