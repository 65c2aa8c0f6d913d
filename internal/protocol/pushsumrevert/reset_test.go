package pushsumrevert

import (
	"testing"

	"dynagg/internal/env"
	"dynagg/internal/gossip"
	"dynagg/internal/xrand"
)

// resetCases covers every variant Reset must restore, and the
// zero-weight observer.
var resetCases = []struct {
	name     string
	cfg      Config
	moments  bool
	observer bool
	model    gossip.Model
}{
	{name: "basic", cfg: Config{Lambda: 0.1}},
	{name: "fulltransfer", cfg: Config{Lambda: 0.1, FullTransfer: true, Parcels: 3, Window: 3}},
	{name: "adaptive", cfg: Config{Lambda: 0.1, Adaptive: true}},
	{name: "pushpull", cfg: Config{Lambda: 0.1}, model: gossip.PushPull},
	{name: "moments", cfg: Config{Lambda: 0.1}, moments: true},
	{name: "observer", cfg: Config{Lambda: 0.1}, observer: true},
}

// resetInput is round r's input to the host under test: the mass (and
// q) that arrives from outside, or under push/pull the mass of its
// exchange partner.
func resetInput(r int) MomentsMass {
	return MomentsMass{Mass: Mass{W: 0.25 + 0.5*float64(r), V: 3 - float64(r)}, Q: 9 + float64(r)}
}

// TestResetMatchesFreshHost pins Reset to construction. A host that has
// gossiped for a few rounds and is then reset, and a freshly built
// host, are fed the same next round; they must end it with
// bit-identical mass and estimate — for Node.Reset and for
// Columnar.Reset(id) inside a population. Right after Reset an observer
// holds no mass and no estimate.
func TestResetMatchesFreshHost(t *testing.T) {
	const warmup = 4
	for _, tc := range resetCases {
		t.Run(tc.name+"/node", func(t *testing.T) {
			build := func(v0 float64) *Node {
				switch {
				case tc.observer:
					return NewObserver(0, tc.cfg)
				case tc.moments:
					return NewMoments(0, v0, tc.cfg)
				}
				return New(0, v0, tc.cfg)
			}
			round := func(n *Node, r int) {
				in := resetInput(r)
				n.BeginRound(r)
				if tc.model == gossip.PushPull {
					partner := New(1, 0, tc.cfg)
					partner.c.w[0], partner.c.v[0] = in.W, in.V
					n.Exchange(partner)
				} else {
					for _, e := range n.Emit(r, nil, func() (gossip.NodeID, bool) { return 1, true }) {
						if e.To == n.ID() {
							n.Receive(e.Payload)
						}
					}
					if tc.moments {
						n.Receive(&in)
					} else {
						n.Receive(in.Mass)
					}
				}
				n.EndRound(r)
			}
			a := build(7)
			for r := range warmup {
				round(a, r)
			}
			a.Reset()
			if tc.observer {
				if est, ok := a.Estimate(); ok || est != 0 || a.Mass() != (Mass{}) {
					t.Fatalf("reset observer reads (%v, %v) with mass %+v, want (0, false) and no mass", est, ok, a.Mass())
				}
			}
			b := build(7)
			round(a, warmup)
			round(b, warmup)
			checkSameHost(t, a.Mass(), b.Mass(), a.Estimate, b.Estimate)
		})
		t.Run(tc.name+"/columnar", func(t *testing.T) {
			const n, id = 4, 2
			vs, w0 := []float64{1, 4, 7, 2}, weight(tc.cfg)
			if tc.observer {
				// Observers as NewObserver builds them: w₀ = v₀ = 0.
				vs, w0 = make([]float64, n), 0
			}
			build := func() *Columnar { return newColumnar(vs, w0, tc.cfg, tc.moments) }
			// round runs host id alone: only it is sampled alive, so its
			// messages to peers are dropped and its self-share and the
			// round's input are what it folds.
			round := func(c *Columnar, r int) {
				in := resetInput(r)
				rngs := make([]xrand.Rand, n)
				for i := range rngs {
					rngs[i] = *xrand.New(uint64(r)).Split(uint64(i))
				}
				rc := gossip.NewColRound(tc.model, env.NewUniform(n), rngs, make([]bool, n), n)
				rc.Round = r
				rc.Sample(id, id+1)
				c.BeginRange(rc, id, id+1)
				if tc.model == gossip.PushPull {
					const partner = 0
					c.w[partner], c.v[partner] = in.W, in.V
					c.ExchangePairs(rc, []gossip.Pair{{A: id, B: partner}})
				} else {
					c.EmitRange(rc, id, id+1)
					c.Deliver(rc, rc.Out)
					if c.moment != nil {
						c.outQ[id] = in.Q
					}
					c.Deliver(rc, []gossip.ColMsg{{To: id, From: id, Mass: gossip.Mass(in.Mass)}})
				}
				c.EndRange(rc, id, id+1)
			}
			a := build()
			for r := range warmup {
				round(a, r)
			}
			a.Reset(id)
			if tc.observer {
				if est, ok := a.Estimate(id); ok || est != 0 || a.Mass(id) != (Mass{}) {
					t.Fatalf("reset observer reads (%v, %v) with mass %+v, want (0, false) and no mass", est, ok, a.Mass(id))
				}
			}
			b := build()
			round(a, warmup)
			round(b, warmup)
			checkSameHost(t, a.Mass(id), b.Mass(id),
				func() (float64, bool) { return a.Estimate(id) },
				func() (float64, bool) { return b.Estimate(id) })
		})
	}
}

// checkSameHost fails unless a reset host and a fresh one agree bit for
// bit on mass and estimate.
func checkSameHost(t *testing.T, reset, fresh Mass, resetEst, freshEst func() (float64, bool)) {
	t.Helper()
	if reset != fresh {
		t.Errorf("mass after a round: reset host %+v, fresh host %+v", reset, fresh)
	}
	re, rok := resetEst()
	fe, fok := freshEst()
	if re != fe || rok != fok {
		t.Errorf("estimate after a round: reset host (%v, %v), fresh host (%v, %v)", re, rok, fe, fok)
	}
}
