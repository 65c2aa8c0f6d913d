package live

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"dynagg/internal/env"
	"dynagg/internal/gossip"
	"dynagg/internal/gossip/live/transport"
	"dynagg/internal/protocol/epoch"
	"dynagg/internal/protocol/extremes"
	"dynagg/internal/protocol/multi"
	"dynagg/internal/protocol/pushsumrevert"
	"dynagg/internal/protocol/sketchcount"
	"dynagg/internal/protocol/sketchreset"
	"dynagg/internal/sketch"
)

// pushSumAgents builds n averaging hosts with values i%100 and returns
// the true average.
func pushSumAgents(n int) ([]gossip.Agent, float64) {
	agents := make([]gossip.Agent, n)
	var truth float64
	for i := 0; i < n; i++ {
		v := float64(i % 100)
		truth += v
		agents[i] = pushsumrevert.New(gossip.NodeID(i), v, pushsumrevert.Config{})
	}
	return agents, truth / float64(n)
}

func meanOf(t *testing.T, ests []float64) float64 {
	t.Helper()
	if len(ests) == 0 {
		t.Fatal("no estimates")
	}
	var mean float64
	for _, v := range ests {
		mean += v
	}
	return mean / float64(len(ests))
}

// TestLivePushSumOverUDPWithLossConverges is the tentpole integration
// contract: Push-Sum at N=256 with every cross-host message traveling
// as a wire-encoded datagram through real loopback sockets (four host
// groups, four sockets) AND 20% injected loss still converges to the
// true average within the live engine's usual tolerance.
func TestLivePushSumOverUDPWithLossConverges(t *testing.T) {
	const n = 256
	u := env.NewUniform(n)
	agents, truth := pushSumAgents(n)
	udp, err := transport.NewUDPLoopback(n, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer udp.Close()
	e, err := New(Config{
		Env: u, Population: NewAgentPopulation(agents), Model: gossip.Push, Seed: 11, Ticks: 80,
		Transport: &transport.Lossy{T: udp, P: 0.2, Seed: 12},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	mean := meanOf(t, e.Estimates())
	if math.Abs(mean-truth) > 0.2*truth {
		t.Errorf("mean estimate %v, want ≈ %v", mean, truth)
	}
	if e.Sent() == 0 {
		t.Error("no messages sent")
	}
	if e.Dropped() == 0 {
		t.Error("20%% injected loss produced no counted drops")
	}
	t.Logf("mean %.2f truth %.2f sent %d dropped %d", mean, truth, e.Sent(), e.Dropped())
}

// TestLiveSketchResetOverUDPConverges runs the paper's dynamic
// counting protocol over the UDP transport: the RLE counter matrices
// survive the wire and the population count converges.
func TestLiveSketchResetOverUDPConverges(t *testing.T) {
	const n = 128
	u := env.NewUniform(n)
	agents := make([]gossip.Agent, n)
	// A 32×16 sketch (±14% expected error) keeps the per-tick datagram
	// volume low enough that the socket readers stay ahead of the
	// senders on a small CI runner; the protocol code path is identical
	// to the paper's 64×24.
	params := sketch.Params{Bins: 32, Levels: 16}
	for i := 0; i < n; i++ {
		agents[i] = sketchreset.New(gossip.NodeID(i), sketchreset.Config{
			Params: params, Identifiers: 1,
		})
	}
	udp, err := transport.NewUDPLoopback(n, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer udp.Close()
	// Count-Sketch-Reset's age cutoffs assume the population iterates
	// at loosely equal rates, so the hosts are paced in wall-clock
	// time — exactly what a radio duty cycle provides in deployment.
	// Sharded workers keep the goroutine count low enough that the
	// socket readers get scheduled even on a single-core runner; the
	// race detector multiplies decode cost, so the duty cycle
	// stretches with it.
	pace := 4 * time.Millisecond
	if raceEnabled {
		pace = 20 * time.Millisecond
	}
	e, err := New(Config{
		Env: u, Population: NewAgentPopulation(agents), Model: gossip.Push, Seed: 21, Ticks: 40,
		Transport: udp, TickEvery: pace, Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	mean := meanOf(t, e.Estimates())
	if math.Abs(mean-n) > 0.4*n {
		t.Errorf("mean live count estimate %v, want ≈ %d", mean, n)
	}
}

// TestLiveSpanEnginesOverUDPConverge splits one 256-host population
// across two engines, each owning half through its own UDP transport —
// the library path of a two-process UDP deployment, including the
// bind-then-SetGroupAddr handshake. The halves' local means differ
// (41.5 and 47.8 against a truth of 44.69), so the check is that the
// spans mix: every host agrees with every other to 1e-5, across the
// span boundary, and their common value is the truth to 2 %. (The
// mean of all estimates alone would read the truth with no traffic
// at all.) Paced ticks keep the two engines interleaved. A paced span
// ticks all its hosts at once, and a burst that overflows the socket
// buffer is lost in the kernel, uncounted, taking its Push-Sum mass
// with it: that moves the value the hosts agree on, not their
// agreement. The 4 MiB buffer makes such bursts rare; a kernel that
// caps it at a stock rmem_max of 208 KiB still doubles its default.
func TestLiveSpanEnginesOverUDPConverge(t *testing.T) {
	const n = 256
	groups := []transport.Group{{Lo: 0, Hi: n / 2}, {Lo: n / 2, Hi: n}}
	mk := func(local int) *transport.UDP {
		gs := append([]transport.Group(nil), groups...)
		gs[local].Addr = "127.0.0.1:0"
		tr, err := transport.NewUDP(transport.WithGroups(gs...), transport.WithLocal(local),
			transport.WithReadBuffer(4<<20))
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	trA, trB := mk(0), mk(1)
	defer trA.Close()
	defer trB.Close()
	if err := trA.SetGroupAddr(1, trB.GroupAddr(1)); err != nil {
		t.Fatal(err)
	}
	if err := trB.SetGroupAddr(0, trA.GroupAddr(0)); err != nil {
		t.Fatal(err)
	}

	agents, truth := pushSumAgents(n)
	mkEngine := func(span Span, tr transport.Transport) *Engine {
		e, err := New(Config{
			Env: env.NewUniform(n), Population: NewAgentPopulation(agents[span.Lo:span.Hi]),
			Model: gossip.Push, Seed: 31, Ticks: 80,
			Transport: tr, Span: span, TickEvery: tickPace(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	ea := mkEngine(Span{Lo: 0, Hi: n / 2}, trA)
	eb := mkEngine(Span{Lo: n / 2, Hi: n}, trB)

	var wg sync.WaitGroup
	for _, e := range []*Engine{ea, eb} {
		wg.Add(1)
		go func(e *Engine) {
			defer wg.Done()
			if err := e.Run(context.Background()); err != nil {
				t.Error(err)
			}
		}(e)
	}
	wg.Wait()

	ests := append(ea.Estimates(), eb.Estimates()...)
	mean := meanOf(t, ests)
	spread := 0.0 // max propagates a NaN estimate, which then fails
	for _, est := range ests {
		spread = max(spread, math.Abs(est-mean)/mean)
	}
	if !(spread <= 1e-5) {
		t.Errorf("hosts disagree: one is %.3g off the mean estimate %v, want ≤ 1e-5", spread, mean)
	}
	if math.Abs(mean-truth) > 0.02*truth {
		t.Errorf("mean estimate %v, want within 2%% of %v", mean, truth)
	}
	if trA.Sent() == 0 || trB.Sent() == 0 {
		t.Errorf("both spans must transmit: sent %d / %d", trA.Sent(), trB.Sent())
	}
}

// TestLiveExplicitChannelTransportMatchesDefault pins that handing the
// engine the extracted channel transport explicitly behaves like the
// nil-Transport default: the protocols converge and the engine's
// accounting flows through the transport.
func TestLiveExplicitChannelTransportMatchesDefault(t *testing.T) {
	const n = 300
	u := env.NewUniform(n)
	agents, truth := pushSumAgents(n)
	ch := transport.NewChannel(n, 0)
	e, err := New(Config{
		Env: u, Population: NewAgentPopulation(agents), Model: gossip.Push, Seed: 1, Ticks: 60,
		Transport: ch,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	mean := meanOf(t, e.Estimates())
	if math.Abs(mean-truth) > 0.2*truth {
		t.Errorf("mean estimate %v, want ≈ %v", mean, truth)
	}
	if e.Sent() <= ch.Sent() {
		t.Errorf("engine Sent %d must include self shares beyond transport's %d", e.Sent(), ch.Sent())
	}
	if e.Dropped() != ch.Dropped() {
		t.Errorf("engine Dropped %d != transport Dropped %d", e.Dropped(), ch.Dropped())
	}
}

// TestLivePayloadsDetachOnHoldingTransports runs every protocol with a
// pointer payload over the two transports that keep a payload past
// Send: the channel's queues, and a delaying loss injector in front of
// them. Emit payloads alias the sender's scratch, which its next tick
// rewrites while the receiver still holds the message, so the run is
// race-clean (under -race, one goroutine per host) only if each holder
// detaches what it keeps through the payload's Detach. Paced ticks keep
// the hosts interleaved, and every host must end near what the round
// engine's population of the same protocol agrees on.
func TestLivePayloadsDetachOnHoldingTransports(t *testing.T) {
	const n, ticks = 64, 40
	pace := time.Millisecond
	if raceEnabled {
		pace = 5 * time.Millisecond
	}
	count := sketchreset.Config{Params: sketch.DefaultParams, Identifiers: 1}
	revert := pushsumrevert.Config{Lambda: 0.01}
	protocols := []struct {
		name  string
		build func(id gossip.NodeID, v float64) gossip.Agent
		// read picks the estimate compared (nil: Estimate).
		read func(gossip.Agent) (float64, bool)
	}{
		{"revert", func(id gossip.NodeID, v float64) gossip.Agent { return pushsumrevert.New(id, v, revert) }, nil},
		{"moments", func(id gossip.NodeID, v float64) gossip.Agent { return pushsumrevert.NewMoments(id, v, revert) }, nil},
		{"sketchreset", func(id gossip.NodeID, _ float64) gossip.Agent { return sketchreset.New(id, count) }, nil},
		{"sketchcount", func(id gossip.NodeID, _ float64) gossip.Agent { return sketchcount.NewCount(id, sketch.DefaultParams) }, nil},
		{"epoch", func(id gossip.NodeID, v float64) gossip.Agent { return epoch.New(id, v, epoch.Config{Length: 30}) }, nil},
		{"extremes", func(id gossip.NodeID, v float64) gossip.Agent {
			return extremes.New(id, v, extremes.Config{Mode: extremes.Max})
		}, nil},
		{"multi", func(id gossip.NodeID, v float64) gossip.Agent {
			return multi.New(id, map[string]float64{"a": v, "b": -v}, count, revert)
		}, func(a gossip.Agent) (float64, bool) { return a.(*multi.Node).Average("a") }},
	}
	transports := []struct {
		name string
		wrap func(*transport.Channel) transport.Transport
	}{
		{"chan", func(ch *transport.Channel) transport.Transport { return ch }},
		{"lossy-delayed", func(ch *transport.Channel) transport.Transport {
			return &transport.Lossy{T: ch, Delay: 200 * time.Microsecond}
		}},
	}
	for _, pr := range protocols {
		read := pr.read
		if read == nil {
			read = gossip.Agent.Estimate
		}
		population := func() []gossip.Agent {
			agents := make([]gossip.Agent, n)
			for i := range agents {
				agents[i] = pr.build(gossip.NodeID(i), float64(1+i%100))
			}
			return agents
		}
		estimates := func(agents []gossip.Agent) []float64 {
			ests := make([]float64, 0, len(agents))
			for _, a := range agents {
				if est, ok := read(a); ok {
					ests = append(ests, est)
				}
			}
			return ests
		}
		ref := population()
		eng, err := gossip.NewEngine(gossip.Config{Env: env.NewUniform(n), Agents: ref, Model: gossip.Push, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		eng.Run(ticks)
		want := meanOf(t, estimates(ref))
		for _, tc := range transports {
			t.Run(pr.name+"/"+tc.name, func(t *testing.T) {
				agents := population()
				tr := tc.wrap(transport.NewChannel(n, 0))
				e, err := New(Config{
					Env: env.NewUniform(n), Population: NewAgentPopulation(agents), Model: gossip.Push,
					Seed: 5, Ticks: ticks, TickEvery: pace, Transport: tr, Workers: 0,
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := e.Run(context.Background()); err != nil {
					t.Fatal(err)
				}
				if err := tr.Close(); err != nil { // waits out delayed deliveries
					t.Fatal(err)
				}
				ests := estimates(agents)
				var relErr float64
				for _, est := range ests {
					relErr += math.Abs(est-want) / want / float64(len(ests))
				}
				if len(ests) < n || relErr > 0.25 {
					t.Errorf("%d/%d hosts estimate, mean relative error %.3f against the round engine's %v; want every host within 25%%",
						len(ests), n, relErr, want)
				}
			})
		}
	}
}

// TestLiveCancellationReturnsCtxErrEveryShard exercises the
// cancellation edge path at every worker setting: whichever shard
// observes the cancelled context must surface ctx.Err(), and Run must
// report it rather than nil.
func TestLiveCancellationReturnsCtxErrEveryShard(t *testing.T) {
	const n = 64
	for _, workers := range []int{0, 1, 4, 16} {
		u := env.NewUniform(n)
		agents, _ := pushSumAgents(n)
		e, err := New(Config{
			Env: u, Population: NewAgentPopulation(agents), Model: gossip.Push, Seed: 7,
			Ticks: 1 << 30, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // every shard sees a cancelled context on its first tick
		if err := e.Run(ctx); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: Run = %v, want context.Canceled", workers, err)
		}
	}

	// Mid-run deadline: the shards are deep in their tick loops when
	// the context expires; Run must still return the context's error.
	u := env.NewUniform(n)
	agents, _ := pushSumAgents(n)
	e, err := New(Config{
		Env: u, Population: NewAgentPopulation(agents), Model: gossip.Push, Seed: 8,
		Ticks: 1 << 30, Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := e.Run(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Run = %v, want context.DeadlineExceeded", err)
	}
}

// TestLiveDroppedAccountingUnderLossy pins the books: with a loss
// injector over an amply-buffered channel transport, the engine's
// Dropped() must match the injected probability within statistical
// tolerance, and sent+dropped must cover every cross-host attempt.
func TestLiveDroppedAccountingUnderLossy(t *testing.T) {
	const n, p = 200, 0.3
	u := env.NewUniform(n)
	agents, _ := pushSumAgents(n)
	lt := &transport.Lossy{T: transport.NewChannel(n, 4096), P: p, Seed: 99}
	e, err := New(Config{
		Env: u, Population: NewAgentPopulation(agents), Model: gossip.Push, Seed: 9, Ticks: 50,
		Transport: lt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	attempts := lt.Sent() + lt.Dropped()
	if attempts == 0 {
		t.Fatal("no cross-host attempts")
	}
	rate := float64(e.Dropped()) / float64(attempts)
	if math.Abs(rate-p) > 0.03 {
		t.Errorf("observed drop rate %.4f over %d attempts, want ≈ %.2f", rate, attempts, p)
	}
	if e.Dropped() != lt.Dropped() {
		t.Errorf("engine Dropped %d != transport Dropped %d", e.Dropped(), lt.Dropped())
	}
}

// TestLiveSpanValidation pins the partial-population guard rails.
func TestLiveSpanValidation(t *testing.T) {
	u := env.NewUniform(4)
	agents, _ := pushSumAgents(2)
	ch := transport.NewChannel(4, 0)

	if _, err := New(Config{Env: u, Population: NewAgentPopulation(agents), Ticks: 1, Span: Span{Lo: 0, Hi: 2}}); err == nil {
		t.Error("Span without Transport accepted")
	}
	if _, err := New(Config{Env: u, Population: NewAgentPopulation(agents), Ticks: 1, Transport: ch, Span: Span{Lo: 2, Hi: 6}}); err == nil {
		t.Error("Span beyond environment accepted")
	}
	if _, err := New(Config{Env: u, Population: NewAgentPopulation(agents), Ticks: 1, Transport: ch, Span: Span{Lo: 1, Hi: 2}}); err == nil {
		t.Error("agent count != span width accepted")
	}
	if _, err := New(Config{
		Env: u, Population: NewAgentPopulation(agents), Ticks: 1, Transport: ch,
		Model: gossip.PushPull, Span: Span{Lo: 0, Hi: 2},
	}); err == nil {
		t.Error("push/pull Span accepted")
	}
	if _, err := New(Config{
		Env: u, Population: NewAgentPopulation(agents), Ticks: 1,
		Transport: &transport.Lossy{T: ch, P: 2},
	}); err == nil {
		t.Error("invalid Lossy accepted")
	}
	if _, err := New(Config{Env: u, Population: NewAgentPopulation(agents), Ticks: 1, Transport: ch, Span: Span{Lo: 0, Hi: 2}}); err != nil {
		t.Errorf("valid span config rejected: %v", err)
	}
}
