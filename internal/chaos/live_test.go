package chaos

import (
	"context"
	"math"
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

// TestNetUnwrapsToTCP pins the AsTCP plumbing: the gateway (and the
// chaos example) must reach the TCP core through a chaos.Net wrapper,
// and blocked sends must sever the cached connection via LinkKiller.
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
// plus whatever is stranded in transport queues (hosts that finish
// their ticks stop draining, so in-flight mass is substantial).
func liveCensus(t *testing.T, agents []gossip.Agent, tr transport.Transport) (w, v float64) {
	t.Helper()
	w, v, ok := SumMass(agents)
	if !ok {
		t.Fatalf("census failed (wrappers not unwrapped?)")
	}
	fw, fv := InFlightMass(tr, len(agents))
	return w + fw, v + fv
}

// TestLiveChaosHonestMassAudit runs a partitioned-then-healed live
// engine over a chaos.Net and asserts the end-of-run census: the cut
// destroys messages and reversion regenerates mass, but the system
// mass ratio stays pinned to the endowment's, so the audit must stay
// clean — and the population mean must be back near truth.
func TestLiveChaosHonestMassAudit(t *testing.T) {
	const (
		n     = 64
		ticks = 80
		seed  = 99
	)
	s := Scenario{
		Name: "live-partition", N: n, Rounds: ticks, Protocol: ProtoRevert, Lambda: 0.2,
		Faults: []Fault{{Kind: FaultPartition, Start: 10, End: 30, Parts: 2}},
	}
	agents, truth := liveScenarioAgents(n, s.Lambda, seed)
	w0, v0, ok := SumMass(agents)
	if !ok {
		t.Fatalf("census failed on honest agents")
	}

	net := NewNet(transport.NewChannel(n, 1024), n, s)
	eng, err := live.New(live.Config{
		Population: live.NewAgentPopulation(agents),
		Env:        env.NewUniform(n),
		Seed:       seed,
		Ticks:      ticks,
		Transport:  net,
	})
	if err != nil {
		t.Fatalf("live.New: %v", err)
	}
	if err := eng.Run(context.Background()); err != nil {
		t.Fatalf("Run: %v", err)
	}

	if lost := net.Lost(); lost[0].Count == 0 {
		t.Fatalf("partition destroyed no messages")
	}
	w1, v1 := liveCensus(t, agents, net)
	audit := LiveMassAudit(w0, v0, w1, v1, 0.1)
	if audit.Violations != 0 {
		t.Fatalf("honest live run flagged: %+v (mass %g/%g -> %g/%g)", audit, w0, v0, w1, v1)
	}

	// Reversion heals destroyed mass, so the population mean must be
	// back near truth despite the mid-run cut.
	ests := eng.Estimates()
	mean := 0.0
	for _, e := range ests {
		mean += e
	}
	mean /= float64(len(ests))
	if rel := math.Abs(mean-truth) / truth; rel > 0.05 {
		t.Fatalf("post-heal mean %g strays %.1f%% from truth %g", mean, 100*rel, truth)
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
	if got := Corrupt(s, agents); got == 0 {
		t.Fatalf("Corrupt touched no hosts")
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
