package live

import (
	"context"
	"math"
	"testing"
	"time"

	"dynagg/internal/env"
	"dynagg/internal/gossip"
	"dynagg/internal/gossip/live/transport"
	"dynagg/internal/protocol/pushsumrevert"
	"dynagg/internal/protocol/sketchreset"
	"dynagg/internal/sketch"
	"dynagg/internal/xrand"
)

func TestNewValidation(t *testing.T) {
	u := env.NewUniform(2)
	agents := []gossip.Agent{pushsumrevert.New(0, 1, pushsumrevert.Config{}), pushsumrevert.New(1, 2, pushsumrevert.Config{})}

	if _, err := New(Config{Population: NewAgentPopulation(agents), Ticks: 5}); err == nil {
		t.Error("nil env accepted")
	}
	if _, err := New(Config{Env: u, Population: NewAgentPopulation(agents[:1]), Ticks: 5}); err == nil {
		t.Error("agent/env size mismatch accepted")
	}
	if _, err := New(Config{Env: u, Population: NewAgentPopulation(agents), Ticks: 0}); err == nil {
		t.Error("zero ticks accepted")
	}
	if _, err := New(Config{Env: u, Population: NewAgentPopulation(agents), Ticks: 5}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestNewRejectsUnknownModel: a Model outside Push/PushPull has no tick
// to run (an agent shard would spin without gossiping), so New refuses
// it for both populations.
func TestNewRejectsUnknownModel(t *testing.T) {
	u := env.NewUniform(2)
	for name, mk := range map[string]func() Population{
		"agents": func() Population {
			return NewAgentPopulation([]gossip.Agent{pushsumrevert.New(0, 1, pushsumrevert.Config{}), pushsumrevert.New(1, 2, pushsumrevert.Config{})})
		},
		"columnar": func() Population {
			return NewColumnarPopulation(pushsumrevert.NewColumnar([]float64{1, 2}, pushsumrevert.Config{}))
		},
	} {
		for _, model := range []gossip.Model{-1, gossip.PushPull + 1, 7} {
			if _, err := New(Config{Env: u, Population: mk(), Ticks: 5, Model: model}); err == nil {
				t.Errorf("%s population accepted %v", name, model)
			}
		}
		if _, err := New(Config{Env: u, Population: mk(), Ticks: 5}); err != nil {
			t.Errorf("%s population rejected the push model: %v", name, err)
		}
	}
}

type bareAgent struct{}

func (bareAgent) BeginRound(int)                                             {}
func (bareAgent) Emit(int, *xrand.Rand, gossip.PeerPicker) []gossip.Envelope { return nil }
func (bareAgent) Receive(any)                                                {}
func (bareAgent) EndRound(int)                                               {}
func (bareAgent) Estimate() (float64, bool)                                  { return 0, false }

func TestNewPushPullRequiresExchanger(t *testing.T) {
	u := env.NewUniform(1)
	if _, err := New(Config{
		Env: u, Population: NewAgentPopulation([]gossip.Agent{bareAgent{}}), Ticks: 1, Model: gossip.PushPull,
	}); err == nil {
		t.Error("push/pull live engine accepted non-Exchanger agent")
	}
}

// TestPushSumConvergesUnderPush runs paced Push-Sum over the default
// transport and requires every host to agree with the others, not just
// the mean of the estimates to sit near the truth: a host that hears
// nothing keeps its v₀, and the mean of the v₀ is the truth, so only
// agreement shows that messages were delivered.
func TestPushSumConvergesUnderPush(t *testing.T) {
	const n = 300
	u := env.NewUniform(n)
	agents, truth := pushSumAgents(n)
	e, err := New(Config{Env: u, Population: NewAgentPopulation(agents), Model: gossip.Push, Seed: 1, Ticks: 60,
		TickEvery: tickPace()})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	checkAgreement(t, e.Estimates(), truth)
	if e.Sent() == 0 {
		t.Error("no messages sent")
	}
}

func TestPushSumRevertConvergesUnderPushPull(t *testing.T) {
	const n = 300
	u := env.NewUniform(n)
	agents := make([]gossip.Agent, n)
	var truth float64
	for i := 0; i < n; i++ {
		v := float64(i % 100)
		truth += v
		agents[i] = pushsumrevert.New(gossip.NodeID(i), v,
			pushsumrevert.Config{Lambda: 0.01})
	}
	truth /= n
	e, err := New(Config{Env: u, Population: NewAgentPopulation(agents), Model: gossip.PushPull, Seed: 2, Ticks: 50})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Hosts tick without a barrier: one that burns through its ticks
	// early can be left behind by later exchanges it never sees, so the
	// convergence contract is on the population, not each host.
	ests := e.Estimates()
	var mean float64
	for _, est := range ests {
		mean += est
	}
	mean /= float64(len(ests))
	if math.Abs(mean-truth) > 0.15*truth {
		t.Errorf("mean estimate %v, want ≈ %v", mean, truth)
	}
	within := 0
	for _, est := range ests {
		if math.Abs(est-truth) <= 0.25*truth {
			within++
		}
	}
	if within < len(ests)*9/10 {
		t.Errorf("only %d/%d hosts within 25%% of truth", within, len(ests))
	}
}

func TestSketchResetConvergesLive(t *testing.T) {
	const n = 400
	u := env.NewUniform(n)
	agents := make([]gossip.Agent, n)
	for i := 0; i < n; i++ {
		agents[i] = sketchreset.New(gossip.NodeID(i), sketchreset.Config{
			Params: sketch.DefaultParams, Identifiers: 1,
		})
	}
	e, err := New(Config{Env: u, Population: NewAgentPopulation(agents), Model: gossip.PushPull, Seed: 3, Ticks: 40})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	ests := e.Estimates()
	var mean float64
	for _, v := range ests {
		mean += v
	}
	mean /= float64(len(ests))
	if math.Abs(mean-n) > 0.4*n {
		t.Errorf("mean live count estimate %v, want ≈ %d", mean, n)
	}
}

func TestContextCancellation(t *testing.T) {
	const n = 50
	u := env.NewUniform(n)
	agents := make([]gossip.Agent, n)
	for i := 0; i < n; i++ {
		agents[i] = pushsumrevert.New(gossip.NodeID(i), 1, pushsumrevert.Config{})
	}
	e, err := New(Config{Env: u, Population: NewAgentPopulation(agents), Model: gossip.Push, Seed: 4, Ticks: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- e.Run(ctx) }()
	select {
	case err := <-done:
		if err == nil {
			t.Error("Run returned nil despite cancellation")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after context cancellation")
	}
}

func TestTinyInboxDrops(t *testing.T) {
	const n = 100
	u := env.NewUniform(n)
	agents := make([]gossip.Agent, n)
	for i := 0; i < n; i++ {
		agents[i] = pushsumrevert.New(gossip.NodeID(i), float64(i), pushsumrevert.Config{})
	}
	e, err := New(Config{
		Env: u, Population: NewAgentPopulation(agents), Model: gossip.Push, Seed: 5, Ticks: 50,
		Transport: transport.NewChannel(n, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// With capacity-1 inboxes and 100 concurrent pushers, drops are all
	// but guaranteed; the engine must count them, not deadlock.
	if e.Sent() == 0 {
		t.Error("nothing sent")
	}
	t.Logf("sent %d dropped %d", e.Sent(), e.Dropped())
}

func TestEstimatesSkipsDeadHosts(t *testing.T) {
	const n = 10
	u := env.NewUniform(n)
	agents := make([]gossip.Agent, n)
	for i := 0; i < n; i++ {
		agents[i] = pushsumrevert.New(gossip.NodeID(i), 1, pushsumrevert.Config{})
	}
	u.Population.Fail(0)
	u.Population.Fail(1)
	e, err := New(Config{Env: u, Population: NewAgentPopulation(agents), Model: gossip.Push, Seed: 6, Ticks: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := len(e.Estimates()); got != n-2 {
		t.Errorf("Estimates returned %d values, want %d", got, n-2)
	}
}

// TestBoundedWorkersConverge exercises the sharded driver: a handful
// of worker goroutines multiplexing all hosts must still converge
// under both models.
func TestBoundedWorkersConverge(t *testing.T) {
	const n = 300
	for _, model := range []gossip.Model{gossip.Push, gossip.PushPull} {
		u := env.NewUniform(n)
		agents := make([]gossip.Agent, n)
		var truth float64
		for i := 0; i < n; i++ {
			v := float64(i % 100)
			truth += v
			agents[i] = pushsumrevert.New(gossip.NodeID(i), v,
				pushsumrevert.Config{Lambda: 0.01})
		}
		truth /= n
		e, err := New(Config{
			Env: u, Population: NewAgentPopulation(agents), Model: model, Seed: 3, Ticks: 60, Workers: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		ests := e.Estimates()
		if len(ests) == 0 {
			t.Fatalf("%v: no estimates", model)
		}
		var mean float64
		for _, est := range ests {
			mean += est
		}
		mean /= float64(len(ests))
		if math.Abs(mean-truth) > 0.2*truth {
			t.Errorf("%v: mean estimate %v, want ≈ %v", model, mean, truth)
		}
	}
}

func TestNegativeWorkersRejected(t *testing.T) {
	u := env.NewUniform(2)
	agents := []gossip.Agent{pushsumrevert.New(0, 1, pushsumrevert.Config{}), pushsumrevert.New(1, 2, pushsumrevert.Config{})}
	if _, err := New(Config{Env: u, Population: NewAgentPopulation(agents), Ticks: 5, Workers: -1}); err == nil {
		t.Error("negative Workers accepted")
	}
}
