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
	"dynagg/internal/protocol/pushsumrevert"
)

// tickPace returns the wall-clock duty cycle for TCP convergence
// tests. Unlike UDP, where Send hands the datagram to the kernel
// inline, TCP sends are queued for an asynchronous writer goroutine —
// a free-running engine finishes all its ticks before the first dial
// completes, so the hosts must tick at a realistic rate for traffic to
// actually flow. The race detector multiplies the per-frame cost, so
// the cycle stretches with it (same idiom as the UDP live tests).
func tickPace() time.Duration {
	if raceEnabled {
		return 20 * time.Millisecond
	}
	return 4 * time.Millisecond
}

// newSpanTCP builds the transport one bootstrap process starts with:
// only its own span is known, everything else is learned via announce.
func newSpanTCP(t *testing.T, lo, hi gossip.NodeID, bind string) *transport.TCP {
	t.Helper()
	tr, err := transport.NewTCP(
		transport.WithGroups(transport.Group{Lo: lo, Hi: hi, Addr: bind}),
		transport.WithLocal(0),
		transport.WithReconnectBackoff(2*time.Millisecond, 50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestBootstrapValidation(t *testing.T) {
	span := Span{Lo: 0, Hi: 4}
	cases := []struct {
		name string
		b    Bootstrap
	}{
		{"no seeds", Bootstrap{Span: span, Total: 8}},
		{"blank seed", Bootstrap{Seeds: []string{" "}, Span: span, Total: 8}},
		{"zero span", Bootstrap{Seeds: []string{"x:1"}, Total: 8}},
		{"empty span", Bootstrap{Seeds: []string{"x:1"}, Span: Span{Lo: 4, Hi: 4}, Total: 8}},
		{"total below span", Bootstrap{Seeds: []string{"x:1"}, Span: Span{Lo: 0, Hi: 9}, Total: 8}},
		{"negative retry", Bootstrap{Seeds: []string{"x:1"}, Span: span, Total: 8, Retry: -1}},
	}
	for _, tc := range cases {
		if err := tc.b.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if err := (&Bootstrap{Seeds: []string{"x:1"}, Span: span, Total: 8}).Validate(); err != nil {
		t.Errorf("minimal valid bootstrap rejected: %v", err)
	}
}

func TestBootstrapConfigValidation(t *testing.T) {
	const n = 8
	u := env.NewUniform(n)
	tr := newSpanTCP(t, 0, 4, "127.0.0.1:0")
	defer tr.Close()
	agents, _ := pushSumAgents(n)
	base := Config{
		Env: u, Population: NewAgentPopulation(agents[:4]), Model: gossip.Push, Seed: 1, Ticks: 1,
		Transport: tr, Span: Span{Lo: 0, Hi: 4},
	}

	cfg := base
	cfg.Bootstrap = &Bootstrap{Seeds: []string{"x:1"}, Span: Span{Lo: 4, Hi: 8}, Total: n}
	if _, err := New(cfg); err == nil {
		t.Error("Bootstrap.Span differing from Config.Span accepted")
	}
	cfg = base
	cfg.Bootstrap = &Bootstrap{Seeds: []string{"x:1"}, Span: base.Span, Total: n + 1}
	if _, err := New(cfg); err == nil {
		t.Error("Bootstrap.Total differing from environment size accepted")
	}
	cfg = base
	cfg.Bootstrap = &Bootstrap{Seeds: []string{"x:1"}, Span: base.Span, Total: n}
	cfg.Transport = transport.NewChannel(n, 0)
	if _, err := New(cfg); err == nil {
		t.Error("Bootstrap over a channel transport accepted")
	}
	// Lossy over TCP must still qualify: AsTCP unwraps the injector.
	cfg = base
	cfg.Bootstrap = &Bootstrap{Seeds: []string{"x:1"}, Span: base.Span, Total: n}
	cfg.Transport = &transport.Lossy{T: tr}
	if _, err := New(cfg); err != nil {
		t.Errorf("Bootstrap over Lossy(TCP) rejected: %v", err)
	}
}

// TestBootstrapSeedPushesMembership pins the push side of the
// protocol: a member whose one successful announce lands BEFORE the
// rest of the population has registered must still learn the later
// spans without ever re-announcing, because the seed pushes each
// accepted announce to every member already in its table. Without the
// push, that member depends on its retry cadence racing the seed
// process's lifetime — a seed that finishes its ticks and exits
// between two retries strands the member at partial coverage.
func TestBootstrapSeedPushesMembership(t *testing.T) {
	const total = 192
	seedTr := newSpanTCP(t, 0, 64, "127.0.0.1:0")
	defer seedTr.Close()
	aTr := newSpanTCP(t, 64, 128, "127.0.0.1:0")
	defer aTr.Close()
	bTr := newSpanTCP(t, 128, 192, "127.0.0.1:0")
	defer bTr.Close()
	seedAddr := seedTr.GroupAddr(0)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	// Member A announces with an hour-long Retry: the initial announce
	// is the only one it can send inside the test's deadline, so its
	// completion proves it learned B's span from a seed push.
	aDone := make(chan error, 1)
	go func() {
		b := &Bootstrap{
			Seeds: []string{seedAddr}, Span: Span{Lo: 64, Hi: 128},
			Total: total, Retry: time.Hour, Timeout: 15 * time.Second,
		}
		aDone <- b.Run(ctx, aTr)
	}()
	// Hold B back until the seed has registered A, so A's announce
	// verifiably predates B's.
	for {
		if g := seedTr.Groups(); len(g) == 2 && g[1].Addr != "" {
			break
		}
		select {
		case err := <-aDone:
			t.Fatalf("member A finished before B existed: %v", err)
		case <-time.After(time.Millisecond):
		}
	}
	bDone := make(chan error, 1)
	go func() {
		b := &Bootstrap{
			Seeds: []string{seedAddr}, Span: Span{Lo: 128, Hi: 192},
			Total: total, Retry: 10 * time.Millisecond, Timeout: 15 * time.Second,
		}
		bDone <- b.Run(ctx, bTr)
	}()
	for name, ch := range map[string]chan error{"A": aDone, "B": bDone} {
		if err := <-ch; err != nil {
			t.Fatalf("member %s bootstrap: %v", name, err)
		}
	}
	if !aTr.Covers(total) || !bTr.Covers(total) || !seedTr.Covers(total) {
		t.Fatal("a transport reports incomplete coverage after bootstrap")
	}
}

// bootstrapEngines builds `spans` engines over one population, each
// with its own single-group TCP transport and a Bootstrap pointing at
// the first span's listener — the in-test model of three
// `dynaggsim live -span -seeds` processes. Caller runs them
// concurrently.
func bootstrapEngines(t *testing.T, n int, spans []Span, seedAddr string, trs []*transport.TCP) ([]*Engine, float64) {
	t.Helper()
	agents, truth := pushSumAgents(n)
	engines := make([]*Engine, len(spans))
	for i, span := range spans {
		e, err := New(Config{
			Env: env.NewUniform(n), Population: NewAgentPopulation(agents[span.Lo:span.Hi]),
			Model: gossip.Push, Seed: 41, Ticks: 80,
			Transport: trs[i], Span: span,
			TickEvery: tickPace(), Workers: 4,
			Bootstrap: &Bootstrap{
				Seeds: []string{seedAddr}, Span: span, Total: n,
				Retry: 10 * time.Millisecond, Timeout: 20 * time.Second,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = e
	}
	return engines, truth
}

func runEngines(t *testing.T, engines []*Engine) {
	t.Helper()
	var wg sync.WaitGroup
	for _, e := range engines {
		wg.Add(1)
		go func(e *Engine) {
			defer wg.Done()
			if err := e.Run(context.Background()); err != nil {
				t.Error(err)
			}
		}(e)
	}
	wg.Wait()
}

// TestLiveBootstrappedSpanEnginesOverTCPConverge is the in-process
// model of the three `dynaggsim live -span -seeds` members in
// docs/deployments.md: three engines, three spans, three TCP
// transports, membership formed entirely by announcing to the first
// engine's listener — no address shuttling — then Push-Sum converges
// across the bootstrapped links.
func TestLiveBootstrappedSpanEnginesOverTCPConverge(t *testing.T) {
	const n = 96
	spans := []Span{{Lo: 0, Hi: 32}, {Lo: 32, Hi: 64}, {Lo: 64, Hi: 96}}
	trs := make([]*transport.TCP, len(spans))
	for i, s := range spans {
		trs[i] = newSpanTCP(t, s.Lo, s.Hi, "127.0.0.1:0")
		defer trs[i].Close()
	}
	engines, truth := bootstrapEngines(t, n, spans, trs[0].GroupAddr(0), trs)
	runEngines(t, engines)

	// Assert per engine: the spans' local means straddle the global
	// truth symmetrically, so a *combined* mean would read ≈ truth even
	// with zero cross-span traffic. Each span converging to the global
	// mean is what proves the bootstrapped links carried gossip.
	for i, e := range engines {
		mean := meanOf(t, e.Estimates())
		if math.Abs(mean-truth) > 0.2*truth {
			t.Errorf("engine %d mean estimate %v, want ≈ %v", i, mean, truth)
		}
	}
	for i, tr := range trs {
		if !tr.Covers(n) {
			t.Errorf("engine %d membership incomplete: %v", i, tr.Groups())
		}
		if tr.Sent() == 0 {
			t.Errorf("engine %d sent nothing", i)
		}
	}
}

// TestLiveBootstrapLateSeed starts the joiner engines first: their
// announce loops retry into the void until the seed process appears,
// then membership completes and the run converges — the "processes
// start in any order" property a UDP address exchange could never
// offer.
func TestLiveBootstrapLateSeed(t *testing.T) {
	const n = 96
	spans := []Span{{Lo: 0, Hi: 32}, {Lo: 32, Hi: 64}, {Lo: 64, Hi: 96}}

	// Reserve an address for the future seed, then release it.
	probe := newSpanTCP(t, 0, 32, "127.0.0.1:0")
	seedAddr := probe.GroupAddr(0)
	if err := probe.Close(); err != nil {
		t.Fatal(err)
	}

	trs := make([]*transport.TCP, len(spans))
	for i, s := range spans[1:] {
		trs[i+1] = newSpanTCP(t, s.Lo, s.Hi, "127.0.0.1:0")
		defer trs[i+1].Close()
	}
	agents, truth := pushSumAgents(n)
	mkEngine := func(i int) *Engine {
		span := spans[i]
		e, err := New(Config{
			Env: env.NewUniform(n), Population: NewAgentPopulation(agents[span.Lo:span.Hi]),
			Model: gossip.Push, Seed: 43, Ticks: 60,
			Transport: trs[i], Span: span,
			TickEvery: tickPace(), Workers: 4,
			Bootstrap: &Bootstrap{
				Seeds: []string{seedAddr}, Span: span, Total: n,
				Retry: 10 * time.Millisecond, Timeout: 20 * time.Second,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}

	var wg sync.WaitGroup
	for i := 1; i < len(spans); i++ {
		e := mkEngine(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := e.Run(context.Background()); err != nil {
				t.Error(err)
			}
		}()
	}
	// The joiners are now announcing at a dead address. Start the seed
	// late, on the reserved address.
	time.Sleep(100 * time.Millisecond)
	trs[0] = newSpanTCP(t, 0, 32, seedAddr)
	defer trs[0].Close()
	seed := mkEngine(0)
	if err := seed.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	mean := meanOf(t, seed.Estimates())
	if math.Abs(mean-truth) > 0.25*truth {
		t.Errorf("seed-span mean estimate %v, want ≈ %v", mean, truth)
	}
}

// TestLiveBootstrapSpanConflictFailsFast: a second process claiming an
// already-owned span must not retry for the full timeout — the
// rejection is a deployment bug and surfaces immediately.
func TestLiveBootstrapSpanConflictFailsFast(t *testing.T) {
	const n = 64
	seedTr := newSpanTCP(t, 0, 32, "127.0.0.1:0")
	defer seedTr.Close()
	impTr := newSpanTCP(t, 0, 32, "127.0.0.1:0") // same span, different listener
	defer impTr.Close()

	b := &Bootstrap{
		Seeds: []string{seedTr.GroupAddr(0)}, Span: Span{Lo: 0, Hi: 32}, Total: n,
		Retry: 10 * time.Millisecond, Timeout: 20 * time.Second,
	}
	start := time.Now()
	err := b.Run(context.Background(), impTr)
	if !errors.Is(err, transport.ErrSpanConflict) {
		t.Fatalf("err = %v, want ErrSpanConflict", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("conflict took %v to surface; must fail fast, not retry out the timeout", elapsed)
	}
}

// TestLiveSpanEnginesOverTCPReconnectMidRun repeatedly severs the
// inter-span connections while the engines run: every kill forces a
// redial, frames die in the outage windows, and Push-Sum (which
// tolerates loss by construction) still converges.
func TestLiveSpanEnginesOverTCPReconnectMidRun(t *testing.T) {
	const n = 128
	spans := []Span{{Lo: 0, Hi: 64}, {Lo: 64, Hi: 128}}
	trs := []*transport.TCP{
		newSpanTCP(t, 0, 64, "127.0.0.1:0"),
		newSpanTCP(t, 64, 128, "127.0.0.1:0"),
	}
	defer trs[0].Close()
	defer trs[1].Close()
	engines, truth := bootstrapEngines(t, n, spans, trs[0].GroupAddr(0), trs)

	stop := make(chan struct{})
	var killer sync.WaitGroup
	killer.Add(1)
	go func() {
		defer killer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(15 * time.Millisecond):
			}
			// Alternate sides so both directions exercise the redial.
			trs[i%2].KillLink(gossip.NodeID((i%2)*64 + 1))
			trs[i%2].KillLink(gossip.NodeID((1-i%2)*64 + 1))
		}
	}()
	runEngines(t, engines)
	close(stop)
	killer.Wait()

	// Per engine, not combined: the two halves' local means average to
	// the truth, so only each span individually reaching it proves the
	// links survived the kill loop (see the bootstrap convergence test).
	for i, e := range engines {
		mean := meanOf(t, e.Estimates())
		if math.Abs(mean-truth) > 0.25*truth {
			t.Errorf("engine %d mean estimate %v, want ≈ %v", i, mean, truth)
		}
	}
	if trs[0].Kills()+trs[1].Kills() == 0 {
		t.Error("the kill loop never severed a connection")
	}
}

// TestLivePushSumOverTCPWithLossConverges runs the classic loss
// integration contract on the stream transport: with Lossy over TCP a
// drop draw kills the carrying connection, so convergence here proves
// the protocols ride out repeated link failures and reconnects, not
// just silent datagram loss.
func TestLivePushSumOverTCPWithLossConverges(t *testing.T) {
	const n = 128
	agents, truth := pushSumAgents(n)
	tcp, err := transport.NewTCP(
		transport.WithLoopbackGroups(n, 4),
		transport.WithReconnectBackoff(time.Millisecond, 10*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	lt := &transport.Lossy{T: tcp, P: 0.05, Seed: 12}
	defer lt.Close()
	e, err := New(Config{
		Env: env.NewUniform(n), Population: NewAgentPopulation(agents), Model: gossip.Push, Seed: 11, Ticks: 80,
		Transport: lt, TickEvery: tickPace(), Workers: 4,
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
	if tcp.Kills() == 0 {
		t.Error("loss over TCP produced no link kills")
	}
	t.Logf("mean %.2f truth %.2f sent %d dropped %d kills %d",
		mean, truth, e.Sent(), e.Dropped(), tcp.Kills())
}

// TestLiveColumnarOverTCPConverges drives the dense-column backend's
// batch plane over stream framing: whole shard waves as single frames,
// decoded straight back into columns — the columnar population works
// over TCP unchanged.
func TestLiveColumnarOverTCPConverges(t *testing.T) {
	const n = 1024
	values, truth := liveValues(n)
	tcp, err := transport.NewTCP(transport.WithLoopbackGroups(n, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	e, err := New(Config{
		Env: env.NewUniform(n), Population: NewColumnarPopulation(pushsumrevert.NewColumnar(values, pushsumrevert.Config{})),
		Model: gossip.Push, Seed: 13, Ticks: 80, Transport: tcp,
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
}

// TestBootstrapKeepAliveRepairsRestartedSeed is the seed-restart
// regression: bootstrap coverage used to be a one-shot handshake, so
// a seed process that died and came back started with an empty
// membership table and no joiner would ever announce again — its
// gossip had nowhere to go for the rest of the epoch. The KeepAlive
// re-announce loop (spawned by Engine.Run after bootstrap completes)
// is the repair channel: a surviving member keeps re-registering, and
// the reborn seed rebuilds full coverage from those announces alone.
func TestBootstrapKeepAliveRepairsRestartedSeed(t *testing.T) {
	const n = 64
	seed := newSpanTCP(t, 0, 32, "127.0.0.1:0")
	seedAddr := seed.GroupAddr(0)
	member := newSpanTCP(t, 32, 64, "127.0.0.1:0")
	defer member.Close()

	b := &Bootstrap{
		Seeds: []string{seedAddr}, Span: Span{Lo: 32, Hi: 64}, Total: n,
		Retry: 10 * time.Millisecond, Timeout: 20 * time.Second,
		ReAnnounce: 20 * time.Millisecond,
	}
	if err := b.Run(context.Background(), member); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	if !member.Covers(n) || !seed.Covers(n) {
		t.Fatalf("handshake did not reach full coverage: member=%v seed=%v",
			member.Groups(), seed.Groups())
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go b.KeepAlive(ctx, member)

	// The seed dies mid-epoch and is reborn on the same address with
	// an empty table: it knows only its own span.
	if err := seed.Close(); err != nil {
		t.Fatal(err)
	}
	reborn := newSpanTCP(t, 0, 32, seedAddr)
	defer reborn.Close()
	if reborn.Covers(n) {
		t.Fatalf("reborn seed started with full coverage; restart not modeled")
	}

	deadline := time.Now().Add(15 * time.Second)
	for !reborn.Covers(n) {
		if time.Now().After(deadline) {
			t.Fatalf("reborn seed never recovered membership: %v", reborn.Groups())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBootstrapKeepAliveDisabled pins the opt-out: ReAnnounce < 0
// turns the keepalive off, so a restarted seed stays uncovered — the
// pre-repair behavior, available for callers that own re-registration
// some other way.
func TestBootstrapKeepAliveDisabled(t *testing.T) {
	const n = 64
	seed := newSpanTCP(t, 0, 32, "127.0.0.1:0")
	seedAddr := seed.GroupAddr(0)
	member := newSpanTCP(t, 32, 64, "127.0.0.1:0")
	defer member.Close()

	b := &Bootstrap{
		Seeds: []string{seedAddr}, Span: Span{Lo: 32, Hi: 64}, Total: n,
		Retry: 10 * time.Millisecond, Timeout: 20 * time.Second,
		ReAnnounce: -1,
	}
	if err := b.Run(context.Background(), member); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go b.KeepAlive(ctx, member) // must return immediately; nothing announces

	if err := seed.Close(); err != nil {
		t.Fatal(err)
	}
	reborn := newSpanTCP(t, 0, 32, seedAddr)
	defer reborn.Close()
	time.Sleep(200 * time.Millisecond)
	if reborn.Covers(n) {
		t.Fatalf("reborn seed recovered with keepalive disabled: %v", reborn.Groups())
	}
}
