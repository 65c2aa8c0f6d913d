package pushsumrevert

import (
	"fmt"
	"slices"
	"testing"

	"dynagg/internal/env"
	"dynagg/internal/gossip"
	"dynagg/internal/xrand"
)

// The inbox contract: a round's end empties the inbox of every host it
// ends, right where it consumes it, so no round begins by clearing one.
// These tests drive every variant through the round engine, as a
// Columnar and as Nodes, with a host that is dead for several rounds
// and then revives, and one Reset.

var inboxCases = []struct {
	name    string
	cfg     Config
	moments bool
}{
	{name: "basic", cfg: Config{Lambda: 0.1}},
	{name: "adaptive", cfg: Config{Lambda: 0.1, Adaptive: true}},
	{name: "moments", cfg: Config{Lambda: 0.1}, moments: true},
	{name: "fulltransfer", cfg: Config{Lambda: 0.1, FullTransfer: true, Parcels: 3, Window: 3}},
	{name: "pushpull", cfg: Config{Lambda: 0.1, PushPull: true}},
}

const (
	inboxHosts  = 24
	inboxRounds = 30
	// inboxDead is dead in rounds [inboxDies, inboxRevives).
	inboxDead, inboxDies, inboxRevives = 5, 8, 14
	// inboxReset is reset before round inboxResetAt.
	inboxReset, inboxResetAt = 9, 20
)

// inboxEmpty reports whether host i's inbox holds nothing.
func (c *hosts[F, B]) inboxEmpty(i gossip.NodeID) bool {
	return c.inW[i] == 0 && c.inV[i] == 0 && (c.moment == nil || c.inQ[i] == 0)
}

// inboxProbe records every host whose inbox was not empty where a round
// began or ended on it, and the rounds host inboxDead began.
type inboxProbe struct {
	faults []string
	began  []int
}

func (p *inboxProbe) check(empty bool, id gossip.NodeID, round int, where string) {
	if !empty {
		p.faults = append(p.faults, fmt.Sprintf("round %d: host %d's inbox not empty %s", round, id, where))
	}
	if id == inboxDead && where == "at begin" {
		p.began = append(p.began, round)
	}
}

func (p *inboxProbe) verify(t *testing.T) {
	t.Helper()
	for _, f := range p.faults {
		t.Error(f)
	}
	if len(p.began) == 0 || p.began[0] != 0 {
		t.Fatalf("host %d began rounds %v, want round 0 first", inboxDead, p.began)
	}
	for _, r := range p.began {
		if r >= inboxDies && r < inboxRevives {
			t.Fatalf("host %d began round %d while dead", inboxDead, r)
		}
	}
	if !slices.Contains(p.began, inboxRevives) {
		t.Fatalf("host %d did not begin round %d, its first live round after reviving", inboxDead, inboxRevives)
	}
}

// checkedColumnar checks the inbox of every live host of a range where
// the round begins on it and after the round ends it.
type checkedColumnar struct {
	*Columnar
	probe *inboxProbe
}

func (k checkedColumnar) BeginRange(rc *gossip.ColRound, lo, hi int) {
	k.Columnar.BeginRange(rc, lo, hi)
	for _, id := range rc.Live(lo, hi) {
		k.probe.check(k.inboxEmpty(id), id, rc.Round, "at begin")
	}
}

func (k checkedColumnar) EndRange(rc *gossip.ColRound, lo, hi int) {
	k.Columnar.EndRange(rc, lo, hi)
	for _, id := range rc.Live(lo, hi) {
		k.probe.check(k.inboxEmpty(id), id, rc.Round, "after end")
	}
}

// checkedNode is checkedColumnar for one Node.
type checkedNode struct {
	*Node
	probe *inboxProbe
}

func (k checkedNode) BeginRound(round int) {
	k.Node.BeginRound(round)
	k.probe.check(k.c.inboxEmpty(0), k.id, round, "at begin")
}

func (k checkedNode) EndRound(round int) {
	k.Node.EndRound(round)
	k.probe.check(k.c.inboxEmpty(0), k.id, round, "after end")
}

func (k checkedNode) Exchange(peer gossip.Exchanger) { k.Node.Exchange(peer.(checkedNode).Node) }

// runInbox runs cfg's rounds with the dead-then-revived host and the
// Reset; reset resets one host and reports whether its inbox is empty.
func runInbox(t *testing.T, u *env.Uniform, cfg gossip.Config, reset func(gossip.NodeID) bool) {
	t.Helper()
	cfg.Env, cfg.Seed = u, 3
	cfg.BeforeRound = []gossip.Hook{func(r int, _ *gossip.Engine) {
		switch r {
		case inboxDies:
			u.Population.Fail(inboxDead)
		case inboxRevives:
			u.Population.Revive(inboxDead)
		case inboxResetAt:
			if !reset(inboxReset) {
				t.Errorf("host %d's inbox not empty after Reset", inboxReset)
			}
		}
	}}
	e, err := gossip.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Run(inboxRounds)
}

func inboxValues() []float64 {
	vs := make([]float64, inboxHosts)
	for i := range vs {
		vs[i] = float64(i*i%17) - 4
	}
	return vs
}

func modelFor(cfg Config) gossip.Model {
	if cfg.PushPull {
		return gossip.PushPull
	}
	return gossip.Push
}

// TestEndEmptiesInbox pins the inbox contract on both forms of every
// variant: after every EndRange/EndRound each host it ended holds an
// empty inbox, and each live host, the revived one included, begins its
// round with one. Push/pull never fills the inbox.
func TestEndEmptiesInbox(t *testing.T) {
	for _, tc := range inboxCases {
		t.Run(tc.name+"/columnar", func(t *testing.T) {
			probe := &inboxProbe{}
			c := newColumnar(inboxValues(), weight(tc.cfg), tc.cfg, tc.moments)
			runInbox(t, env.NewUniform(inboxHosts), gossip.Config{
				Columnar: checkedColumnar{c, probe}, Model: modelFor(tc.cfg),
			}, func(id gossip.NodeID) bool { c.Reset(id); return c.inboxEmpty(id) })
			probe.verify(t)
		})
		t.Run(tc.name+"/node", func(t *testing.T) {
			probe := &inboxProbe{}
			nodes := make([]*Node, inboxHosts)
			agents := make([]gossip.Agent, inboxHosts)
			for i, v := range inboxValues() {
				nodes[i] = newNode(gossip.NodeID(i), v, weight(tc.cfg), tc.cfg, tc.moments)
				agents[i] = checkedNode{nodes[i], probe}
			}
			runInbox(t, env.NewUniform(inboxHosts), gossip.Config{
				Agents: agents, Model: modelFor(tc.cfg),
			}, func(id gossip.NodeID) bool { nodes[id].Reset(); return nodes[id].c.inboxEmpty(0) })
			probe.verify(t)
		})
	}
}

// TestFullTransferRoundWithoutMassKeepsWindow pins Full-Transfer's
// record rule: a round in which no mass arrives leaves the host's
// window and estimate as they were, on both forms.
func TestFullTransferRoundWithoutMassKeepsWindow(t *testing.T) {
	cfg := Config{Lambda: 0.1, FullTransfer: true, Parcels: 3, Window: 3}
	const id = 7

	t.Run("columnar", func(t *testing.T) {
		u := env.NewUniform(inboxHosts)
		c := NewColumnar(inboxValues(), cfg)
		e, err := gossip.NewEngine(gossip.Config{Env: u, Columnar: c, Model: gossip.Push, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		e.Run(inboxRounds)
		pos, n := c.histPos[id], c.histLen[id]
		est, ok := c.Estimate(id)
		rngs := make([]xrand.Rand, inboxHosts)
		rc := gossip.NewColRound(gossip.Push, u, rngs, make([]bool, inboxHosts), inboxHosts)
		rc.Round = inboxRounds
		rc.Sample(0, inboxHosts)
		c.BeginRange(rc, id, id+1)
		c.EndRange(rc, id, id+1)
		if c.histPos[id] != pos || c.histLen[id] != n {
			t.Errorf("window moved from (pos %d, len %d) to (pos %d, len %d)", pos, n, c.histPos[id], c.histLen[id])
		}
		if e2, ok2 := c.Estimate(id); e2 != est || ok2 != ok {
			t.Errorf("estimate moved from (%v, %v) to (%v, %v)", est, ok, e2, ok2)
		}
	})
	t.Run("node", func(t *testing.T) {
		n := New(id, 3, cfg)
		for r := range inboxRounds {
			n.BeginRound(r)
			for _, e := range n.Emit(r, nil, func() (gossip.NodeID, bool) { return id, false }) {
				n.Receive(e.Payload)
			}
			n.EndRound(r)
		}
		pos, l := n.c.histPos[0], n.c.histLen[0]
		est, ok := n.Estimate()
		n.BeginRound(inboxRounds)
		n.EndRound(inboxRounds)
		if n.c.histPos[0] != pos || n.c.histLen[0] != l {
			t.Errorf("window moved from (pos %d, len %d) to (pos %d, len %d)", pos, l, n.c.histPos[0], n.c.histLen[0])
		}
		if e2, ok2 := n.Estimate(); e2 != est || ok2 != ok {
			t.Errorf("estimate moved from (%v, %v) to (%v, %v)", est, ok, e2, ok2)
		}
	})
}
