package chaos

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"dynagg/internal/env"
	"dynagg/internal/gossip"
	"dynagg/internal/gossip/live"
	"dynagg/internal/gossip/live/transport"
	"dynagg/internal/protocol/pushsumrevert"
)

// TestNetPartitionFilter pins the Net delivery filter: cross-cut
// sends inside the fault window are destroyed and tallied, everything
// else forwards untouched.
func TestNetPartitionFilter(t *testing.T) {
	const n = 8
	s := Scenario{
		Name: "net", N: n, Rounds: 40, Protocol: ProtoPushSum,
		Faults: []Fault{{Kind: FaultPartition, Start: 10, End: 20, Parts: 2}},
	}
	inner := transport.NewChannel(n, 16)
	net := NewNet(inner, n, s)
	defer net.Close()

	// Host 0 and host 7 sit on opposite sides of a 2-way cut.
	if !net.Send(0, 7, 5, "before") {
		t.Fatalf("pre-fault cross send dropped")
	}
	if net.Send(0, 7, 10, "during") {
		t.Fatalf("cross send delivered inside the partition window")
	}
	if net.Send(7, 0, 19, "during") {
		t.Fatalf("reverse cross send delivered inside the partition window")
	}
	if !net.Send(0, 1, 15, "same side") {
		t.Fatalf("same-side send dropped during the partition")
	}
	if !net.Send(0, 7, 20, "healed") {
		t.Fatalf("cross send dropped after heal")
	}

	lost := net.Lost()
	if len(lost) != 1 || lost[0].Kind != FaultPartition || lost[0].Count != 2 {
		t.Fatalf("loss tally = %+v, want one partition entry with count 2", lost)
	}
	if net.Dropped() != 0 {
		t.Fatalf("fault-destroyed messages leaked into Dropped(): %d", net.Dropped())
	}
	delivered := 0
	for id := gossip.NodeID(0); id < n; id++ {
		net.Drain(id, func(any) { delivered++ })
	}
	if delivered != 3 {
		t.Fatalf("delivered %d messages, want 3", delivered)
	}
}

// TestNetOutageFilter pins the outage variant: any send touching the
// dead region is destroyed while the window is open.
func TestNetOutageFilter(t *testing.T) {
	const n = 8
	s := Scenario{
		Name: "net", N: n, Rounds: 40, Protocol: ProtoPushSum,
		Faults: []Fault{{Kind: FaultOutage, Start: 5, End: 15, Lo: 0, Hi: 4}},
	}
	net := NewNet(transport.NewChannel(n, 16), n, s)
	defer net.Close()

	if net.Send(2, 6, 5, "from dead region") || net.Send(6, 2, 14, "into dead region") {
		t.Fatalf("send touching the outage region delivered")
	}
	if !net.Send(5, 6, 10, "outside region") {
		t.Fatalf("send clear of the outage region dropped")
	}
	if got := net.Lost()[0].Count; got != 2 {
		t.Fatalf("outage destroyed %d messages, want 2", got)
	}
}

// TestNetUnwrapsToTCP pins the AsTCP plumbing: the gateway (and a
// bootstrapped span engine) must reach the TCP core through a
// chaos.Net wrapper, and blocked sends must sever the cached
// connection via LinkKiller.
func TestNetUnwrapsToTCP(t *testing.T) {
	tcp, err := transport.NewTCPLoopback(4, 2, 16)
	if err != nil {
		t.Fatalf("NewTCPLoopback: %v", err)
	}
	s := Scenario{
		Name: "net", N: 4, Rounds: 40, Protocol: ProtoPushSum,
		Faults: []Fault{{Kind: FaultPartition, Start: 5, End: 40, Parts: 2}},
	}
	net := NewNet(tcp, 4, s)
	defer net.Close()

	if got, ok := transport.AsTCP(net); !ok || got != tcp {
		t.Fatalf("AsTCP failed to reach the TCP core through chaos.Net")
	}
	if _, ok := transport.AsTCP(NewNet(transport.NewChannel(4, 16), 4, s)); ok {
		t.Fatalf("AsTCP invented a TCP core from a channel transport")
	}

	// Establish the cached connection toward host 3's group with a
	// pre-window send (delivery proves the dial completed), so the
	// link-kill below has a connection to sever.
	if !net.Send(0, 3, 0, pushsumrevert.Mass{W: 1, V: 1}) {
		t.Fatalf("pre-fault cross send dropped")
	}
	deadline := time.Now().Add(10 * time.Second)
	for arrived := false; !arrived; {
		net.Drain(3, func(any) { arrived = true })
		if !arrived && time.Now().After(deadline) {
			t.Fatalf("pre-fault message never delivered over TCP loopback")
		}
	}

	// A blocked cross-cut send must register a link kill on the core.
	before := tcp.Kills()
	if net.Send(0, 3, 5, pushsumrevert.Mass{W: 1, V: 1}) {
		t.Fatalf("cross-cut send delivered")
	}
	if tcp.Kills() <= before {
		t.Fatalf("blocked send did not sever the cached link: kills %d -> %d", before, tcp.Kills())
	}
}

// liveScenarioAgents builds an honest reverting population sharing the
// deterministic value assignment the round runner uses.
func liveScenarioAgents(n int, lambda float64, seed uint64) ([]gossip.Agent, float64) {
	values := scenarioValues(n, seed)
	truth := 0.0
	agents := make([]gossip.Agent, n)
	for i := range agents {
		agents[i] = pushsumrevert.New(gossip.NodeID(i), values[i], pushsumrevert.Config{Lambda: lambda})
		truth += values[i]
	}
	return agents, truth / float64(n)
}

// liveCensus totals the system mass after a run: agent-held state
// plus whatever is stranded in the transports' queues (hosts that
// finish their ticks stop draining, so in-flight mass is substantial).
func liveCensus(t *testing.T, agents []gossip.Agent, trs ...transport.Transport) (w, v float64) {
	t.Helper()
	w, v, ok := SumMass(agents)
	if !ok {
		t.Fatalf("census failed (wrappers not unwrapped?)")
	}
	for _, tr := range trs {
		fw, fv := InFlightMass(tr, len(agents))
		w, v = w+fw, v+fv
	}
	return w, v
}

// TestLiveChaosHonestMassAudit runs partitioned-then-healed live
// engines over chaos.Net and asserts the end-of-run census: the cut
// destroys messages and reversion regenerates mass, but the system
// mass ratio stays pinned to the endowment's, so the audit must stay
// clean — and every span's mean must be back near truth. The tcp case
// is a three-process cluster in one process: three span engines, each
// on its own TCP transport bootstrapped from the first, so the cut
// severs real connections (Kills) on every side.
func TestLiveChaosHonestMassAudit(t *testing.T) {
	for _, tc := range []struct {
		name  string
		s     Scenario
		seed  uint64
		spans int           // 0: one engine over channels; k: k TCP span engines
		pace  time.Duration // tick duty cycle
		bound float64       // largest relative error of a span's mean
	}{
		{name: "chan", seed: 99, bound: 0.05, s: Scenario{
			Name: "live-partition", N: 64, Rounds: 80, Protocol: ProtoRevert, Lambda: 0.2,
			Faults: []Fault{{Kind: FaultPartition, Start: 10, End: 30, Parts: 2}},
		}},
		{name: "tcp", seed: 7, spans: 3, pace: 10 * time.Millisecond, bound: 0.1, s: Scenario{
			Name: "cluster-partition-heal", N: 96, Rounds: 150, Protocol: ProtoRevert, Lambda: 0.1,
			Faults: []Fault{{Kind: FaultPartition, Start: 20, End: 70, Parts: 3}},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.s.N
			agents, truth := liveScenarioAgents(n, tc.s.Lambda, tc.seed)
			w0, v0, ok := SumMass(agents)
			if !ok {
				t.Fatalf("census failed on honest agents")
			}

			var nets []*Net
			var tcps []*transport.TCP
			var engines []*live.Engine
			cfg := live.Config{
				Env: env.NewUniform(n), Model: gossip.Push, Seed: tc.seed,
				Ticks: tc.s.Rounds, TickEvery: tc.pace,
			}
			if tc.spans == 0 {
				nets = append(nets, NewNet(transport.NewChannel(n, 1024), n, tc.s))
				cfg.Population, cfg.Transport = live.NewAgentPopulation(agents), nets[0]
				eng, err := live.New(cfg)
				if err != nil {
					t.Fatalf("live.New: %v", err)
				}
				engines = append(engines, eng)
			}
			for i := 0; i < tc.spans; i++ {
				span := live.Span{Lo: gossip.NodeID(i * n / tc.spans), Hi: gossip.NodeID((i + 1) * n / tc.spans)}
				tcp, err := transport.NewTCP(
					transport.WithGroups(transport.Group{Lo: span.Lo, Hi: span.Hi, Addr: "127.0.0.1:0"}),
					transport.WithLocal(0),
					transport.WithReconnectBackoff(20*time.Millisecond, 200*time.Millisecond))
				if err != nil {
					t.Fatalf("NewTCP: %v", err)
				}
				tcps = append(tcps, tcp)
				nets = append(nets, NewNet(tcp, n, tc.s))
				defer nets[i].Close()
				cfg.Population = live.NewAgentPopulation(agents[span.Lo:span.Hi])
				cfg.Transport, cfg.Span, cfg.Workers = nets[i], span, 4
				cfg.Bootstrap = &live.Bootstrap{
					Seeds: []string{tcps[0].GroupAddr(0)}, Span: span, Total: n,
					Retry: 10 * time.Millisecond, Timeout: 20 * time.Second,
				}
				eng, err := live.New(cfg)
				if err != nil {
					t.Fatalf("live.New: %v", err)
				}
				engines = append(engines, eng)
			}
			var wg sync.WaitGroup
			for _, eng := range engines {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := eng.Run(context.Background()); err != nil {
						t.Errorf("Run: %v", err)
					}
				}()
			}
			wg.Wait()

			var lost, kills int64
			trs := make([]transport.Transport, len(nets))
			for i, net := range nets {
				lost += net.Lost()[0].Count
				trs[i] = net
			}
			w1, v1 := liveCensus(t, agents, trs...)
			for _, tcp := range tcps {
				kills += tcp.Kills()
			}
			if lost == 0 {
				t.Fatalf("partition destroyed no messages")
			}
			if tc.spans > 0 && kills == 0 {
				t.Fatalf("partition severed no TCP links: chaos.Net did not reach the transport core")
			}
			audit := LiveMassAudit(w0, v0, w1, v1, 0.1)
			t.Logf("lost %d  kills %d  mass ratio %.4f -> %.4f (drift %.3g)", lost, kills, v0/w0, v1/w1, audit.MaxDrift)
			if audit.Violations != 0 {
				t.Fatalf("honest live run flagged: %+v (mass %g/%g -> %g/%g)", audit, w0, v0, w1, v1)
			}

			// Reversion heals destroyed mass, so each span's mean must be
			// back near truth despite the mid-run cut.
			for i, eng := range engines {
				ests := eng.Estimates()
				mean := 0.0
				for _, e := range ests {
					mean += e
				}
				mean /= float64(len(ests))
				rel := math.Abs(mean-truth) / truth
				t.Logf("engine %d: mean %.4f  truth %.4f  rel.err %.2f%%", i, mean, truth, 100*rel)
				if rel > tc.bound {
					t.Errorf("engine %d: post-heal mean %g strays %.1f%% from truth %g", i, mean, 100*rel, truth)
				}
			}
		})
	}
}

// TestLiveChaosByzantineFlagged corrupts a slice of a live population
// with lying-mass agents and asserts the census catches the
// fabricated mass the liars inject: the claimed value sits far
// outside the honest population's, so the system mass ratio drifts
// toward it and the audit flags the run.
func TestLiveChaosByzantineFlagged(t *testing.T) {
	const (
		n     = 64
		ticks = 60
		seed  = 17
	)
	s := Scenario{
		Name: "live-liars", N: n, Rounds: ticks, Protocol: ProtoRevert, Lambda: 0.1,
		Adversaries: []Adversary{{Kind: AdvLyingMass, Frac: 0.1, Value: 500, Start: 5}},
	}
	agents, _ := liveScenarioAgents(n, s.Lambda, seed)
	w0, v0, _ := SumMass(agents)
	if got := applyAdversaries(s, agents); got == 0 {
		t.Fatalf("applyAdversaries touched no hosts")
	}

	tr := transport.NewChannel(n, 1024)
	eng, err := live.New(live.Config{
		Population: live.NewAgentPopulation(agents),
		Env:        env.NewUniform(n),
		Seed:       seed,
		Ticks:      ticks,
		Transport:  tr,
	})
	if err != nil {
		t.Fatalf("live.New: %v", err)
	}
	if err := eng.Run(context.Background()); err != nil {
		t.Fatalf("Run: %v", err)
	}

	w1, v1 := liveCensus(t, agents, tr)
	audit := LiveMassAudit(w0, v0, w1, v1, 0.1)
	if audit.Violations == 0 {
		t.Fatalf("lying-mass run not flagged: %+v (mass %g/%g -> %g/%g)", audit, w0, v0, w1, v1)
	}
}
