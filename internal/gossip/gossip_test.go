package gossip

import (
	"testing"

	"dynagg/internal/xrand"
)

// testEnv is a minimal fully connected environment with controllable
// liveness.
type testEnv struct {
	n    int
	dead map[NodeID]bool
}

func newTestEnv(n int) *testEnv { return &testEnv{n: n, dead: map[NodeID]bool{}} }

func (e *testEnv) Size() int                       { return e.n }
func (e *testEnv) Alive(id NodeID, round int) bool { return !e.dead[id] }
func (e *testEnv) Advance(round int)               {}
func (e *testEnv) AliveRange(lo, hi, round int, dst []bool) {
	for i := range dst[:hi-lo] {
		dst[i] = !e.dead[NodeID(lo+i)]
	}
}
func (e *testEnv) Pick(id NodeID, round int, rng *xrand.Rand) (NodeID, bool) {
	candidates := make([]NodeID, 0, e.n)
	for c := NodeID(0); int(c) < e.n; c++ {
		if c != id && !e.dead[c] {
			candidates = append(candidates, c)
		}
	}
	if len(candidates) == 0 {
		return 0, false
	}
	return candidates[rng.Intn(len(candidates))], true
}

// echoAgent counts lifecycle calls and forwards a token to one peer
// per round.
type echoAgent struct {
	id       NodeID
	begun    int
	emitted  int
	received int
	ended    int
	est      float64
}

func (a *echoAgent) BeginRound(round int) { a.begun++ }
func (a *echoAgent) Emit(round int, rng *xrand.Rand, pick PeerPicker) []Envelope {
	a.emitted++
	peer, ok := pick()
	if !ok {
		return nil
	}
	return []Envelope{{To: peer, Payload: int(a.id)}}
}
func (a *echoAgent) Receive(payload any)       { a.received++ }
func (a *echoAgent) EndRound(round int)        { a.ended++ }
func (a *echoAgent) Estimate() (float64, bool) { return a.est, true }
func (a *echoAgent) Exchange(peer Exchanger)   {}

func newEngine(t *testing.T, n int, model Model) (*Engine, []*echoAgent, *testEnv) {
	t.Helper()
	env := newTestEnv(n)
	agents := make([]Agent, n)
	raw := make([]*echoAgent, n)
	for i := range agents {
		raw[i] = &echoAgent{id: NodeID(i)}
		agents[i] = raw[i]
	}
	e, err := NewEngine(Config{Env: env, Agents: agents, Model: model, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return e, raw, env
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(Config{}); err == nil {
		t.Error("nil env accepted")
	}
	env := newTestEnv(3)
	if _, err := NewEngine(Config{Env: env, Agents: make([]Agent, 2)}); err == nil {
		t.Error("agent/env size mismatch accepted")
	}
}

// TestNewEngineRejectsUnknownModel: a Model outside Push/PushPull has
// no round to run, so it is refused on both backends instead of
// counting rounds without gossiping.
func TestNewEngineRejectsUnknownModel(t *testing.T) {
	env := newTestEnv(2)
	for name, cfg := range map[string]Config{
		"classic":  {Env: env, Agents: []Agent{noExchange{}, noExchange{}}},
		"columnar": {Env: env, Columnar: noColumns{}},
	} {
		for _, model := range []Model{-1, PushPull + 1, 7} {
			cfg.Model = model
			if _, err := NewEngine(cfg); err == nil {
				t.Errorf("%s engine accepted %v", name, model)
			}
		}
		cfg.Model = Push
		if _, err := NewEngine(cfg); err != nil {
			t.Errorf("%s engine rejected %v: %v", name, Push, err)
		}
	}
}

type noColumns struct{}

func (noColumns) Len() int                        { return 2 }
func (noColumns) BeginRange(*ColRound, int, int)  {}
func (noColumns) EmitRange(*ColRound, int, int)   {}
func (noColumns) Deliver(*ColRound, []ColMsg)     {}
func (noColumns) EndRange(*ColRound, int, int)    {}
func (noColumns) Estimate(NodeID) (float64, bool) { return 0, false }

func TestNewEnginePushPullRequiresExchanger(t *testing.T) {
	env := newTestEnv(1)
	agents := []Agent{noExchange{}}
	if _, err := NewEngine(Config{Env: env, Agents: agents, Model: PushPull}); err == nil {
		t.Error("push/pull engine accepted non-Exchanger agent")
	}
}

type noExchange struct{}

func (noExchange) BeginRound(int)                               {}
func (noExchange) Emit(int, *xrand.Rand, PeerPicker) []Envelope { return nil }
func (noExchange) Receive(any)                                  {}
func (noExchange) EndRound(int)                                 {}
func (noExchange) Estimate() (float64, bool)                    { return 0, false }

func TestLifecycleOrderPush(t *testing.T) {
	e, raw, _ := newEngine(t, 10, Push)
	e.Run(5)
	for i, a := range raw {
		if a.begun != 5 || a.emitted != 5 || a.ended != 5 {
			t.Errorf("agent %d lifecycle counts: begun=%d emitted=%d ended=%d, want 5 each",
				i, a.begun, a.emitted, a.ended)
		}
	}
	if e.Round() != 5 {
		t.Errorf("Round = %d, want 5", e.Round())
	}
}

func TestMessagesDelivered(t *testing.T) {
	e, raw, _ := newEngine(t, 10, Push)
	e.Run(1)
	// every agent sent exactly one message; all recipients alive
	var received int
	for _, a := range raw {
		received += a.received
	}
	if received != 10 {
		t.Errorf("total received = %d, want 10", received)
	}
	if e.Messages() != 10 {
		t.Errorf("Messages = %d, want 10", e.Messages())
	}
	if e.Contacts() != 10 {
		t.Errorf("Contacts = %d, want 10", e.Contacts())
	}
}

func TestDeadHostsSkipped(t *testing.T) {
	e, raw, env := newEngine(t, 10, Push)
	env.dead[3] = true
	env.dead[7] = true
	e.Run(3)
	for _, id := range []NodeID{3, 7} {
		a := raw[id]
		if a.begun != 0 || a.emitted != 0 || a.received != 0 || a.ended != 0 {
			t.Errorf("dead agent %d was driven: %+v", id, *a)
		}
	}
}

// blindEnv models a mobile network where the initiator cannot tell
// that its peer has departed: Pick keeps returning dead hosts.
type blindEnv struct{ testEnv }

func (e *blindEnv) Pick(id NodeID, round int, rng *xrand.Rand) (NodeID, bool) {
	for c := NodeID(0); int(c) < e.n; c++ {
		if c != id {
			return c, true
		}
	}
	return 0, false
}

func TestMessagesToDeadHostsLost(t *testing.T) {
	env := &blindEnv{testEnv{n: 2, dead: map[NodeID]bool{}}}
	// agent 0 always sends to 1; 1 is dead but Pick still offers it.
	a0 := &echoAgent{id: 0}
	a1 := &echoAgent{id: 1}
	e, err := NewEngine(Config{Env: env, Agents: []Agent{a0, a1}, Model: Push, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	env.dead[1] = true
	e.Run(2)
	if a1.received != 0 {
		t.Errorf("dead agent received %d messages", a1.received)
	}
	// messages are still counted as sent (they were transmitted)
	if e.Messages() == 0 {
		t.Error("expected message transmissions to be counted")
	}
}

func TestHooksRunInOrder(t *testing.T) {
	env := newTestEnv(3)
	agents := make([]Agent, 3)
	for i := range agents {
		agents[i] = &echoAgent{id: NodeID(i)}
	}
	var calls []string
	e, err := NewEngine(Config{
		Env: env, Agents: agents, Seed: 1,
		BeforeRound: []Hook{
			func(r int, e *Engine) { calls = append(calls, "before1") },
			func(r int, e *Engine) { calls = append(calls, "before2") },
		},
		AfterRound: []Hook{func(r int, e *Engine) { calls = append(calls, "after") }},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Step()
	want := []string{"before1", "before2", "after"}
	if len(calls) != len(want) {
		t.Fatalf("calls = %v", calls)
	}
	for i := range want {
		if calls[i] != want[i] {
			t.Fatalf("calls = %v, want %v", calls, want)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		e, raw, _ := newEngine(t, 50, Push)
		e.Run(10)
		out := make([]float64, len(raw))
		for i, a := range raw {
			out[i] = float64(a.received)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run not deterministic at host %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// exchAgent tracks pairwise exchanges.
type exchAgent struct {
	echoAgent
	exchanges int
}

func (a *exchAgent) Exchange(peer Exchanger) {
	a.exchanges++
	peer.(*exchAgent).exchanges++
}

func TestPushPullExchanges(t *testing.T) {
	env := newTestEnv(10)
	agents := make([]Agent, 10)
	raw := make([]*exchAgent, 10)
	for i := range agents {
		raw[i] = &exchAgent{echoAgent: echoAgent{id: NodeID(i)}}
		agents[i] = raw[i]
	}
	e, err := NewEngine(Config{Env: env, Agents: agents, Model: PushPull, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(1)
	var total int
	for _, a := range raw {
		total += a.exchanges
	}
	// 10 initiations, each counted at both ends.
	if total != 20 {
		t.Errorf("total exchange participations = %d, want 20", total)
	}
	if e.Contacts() != 10 {
		t.Errorf("Contacts = %d, want 10", e.Contacts())
	}
	if e.Messages() != 20 {
		t.Errorf("Messages = %d, want 20", e.Messages())
	}
	// Emit must never be called under push/pull.
	for i, a := range raw {
		if a.emitted != 0 {
			t.Errorf("agent %d Emit called under push/pull", i)
		}
	}
}

func TestEstimates(t *testing.T) {
	e, raw, env := newEngine(t, 5, Push)
	for i, a := range raw {
		a.est = float64(i)
	}
	env.dead[2] = true
	ests := e.Estimates()
	if len(ests) != 4 {
		t.Fatalf("Estimates returned %d values, want 4", len(ests))
	}
	if _, ok := e.EstimateOf(2); ok {
		t.Error("EstimateOf(dead host) returned ok")
	}
	if v, ok := e.EstimateOf(4); !ok || v != 4 {
		t.Errorf("EstimateOf(4) = %v, %v", v, ok)
	}
}

func TestModelString(t *testing.T) {
	if Push.String() != "push" || PushPull.String() != "push-pull" {
		t.Error("model names wrong")
	}
	if Model(9).String() == "" {
		t.Error("unknown model should still render")
	}
}
