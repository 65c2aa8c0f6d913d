package sketchcount

import (
	"math"
	"testing"

	"dynagg/internal/env"
	"dynagg/internal/gossip"
	"dynagg/internal/sketch"
)

func runCount(t *testing.T, n, rounds int, model gossip.Model, seed uint64) *gossip.Engine {
	t.Helper()
	e := env.NewUniform(n)
	agents := make([]gossip.Agent, n)
	for i := 0; i < n; i++ {
		agents[i] = NewCount(gossip.NodeID(i), sketch.DefaultParams)
	}
	engine, err := gossip.NewEngine(gossip.Config{Env: e, Agents: agents, Model: model, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	engine.Run(rounds)
	return engine
}

func TestCountConvergesWithinFMError(t *testing.T) {
	const n = 2000
	engine := runCount(t, n, 25, gossip.PushPull, 1)
	tol := 3 * sketch.DefaultParams.ExpectedRelativeError() * n
	for id, a := range engine.Agents() {
		est, ok := a.Estimate()
		if !ok {
			t.Fatalf("host %d has no estimate", id)
		}
		if math.Abs(est-n) > tol {
			t.Errorf("host %d estimate %v, want %d ± %v", id, est, n, tol)
		}
	}
}

func TestAllHostsAgreeAfterConvergence(t *testing.T) {
	engine := runCount(t, 500, 25, gossip.PushPull, 2)
	first, _ := engine.Agents()[0].Estimate()
	for id, a := range engine.Agents() {
		est, _ := a.Estimate()
		if est != first {
			t.Errorf("host %d estimate %v differs from host 0's %v after convergence", id, est, first)
		}
	}
}

// The static sketch only grows: estimates are monotone non-decreasing
// round over round at every host.
func TestEstimateMonotone(t *testing.T) {
	const n = 500
	e := env.NewUniform(n)
	agents := make([]gossip.Agent, n)
	for i := 0; i < n; i++ {
		agents[i] = NewCount(gossip.NodeID(i), sketch.DefaultParams)
	}
	engine, err := gossip.NewEngine(gossip.Config{Env: e, Agents: agents, Model: gossip.Push, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	prev := make([]float64, n)
	for r := 0; r < 20; r++ {
		engine.Step()
		for id, a := range engine.Agents() {
			est, _ := a.Estimate()
			if est < prev[id]-1e-9 {
				t.Fatalf("host %d estimate decreased %v -> %v at round %d", id, prev[id], est, r)
			}
			prev[id] = est
		}
	}
}

// Failures do not decrease the static estimate: the bits of departed
// hosts persist (the defect Count-Sketch-Reset fixes).
func TestFailureDoesNotShrinkEstimate(t *testing.T) {
	const n = 1000
	e := env.NewUniform(n)
	agents := make([]gossip.Agent, n)
	for i := 0; i < n; i++ {
		agents[i] = NewCount(gossip.NodeID(i), sketch.DefaultParams)
	}
	engine, err := gossip.NewEngine(gossip.Config{Env: e, Agents: agents, Model: gossip.PushPull, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	engine.Run(20)
	before, _ := engine.Agents()[0].Estimate()
	for i := 1; i < n; i += 2 {
		e.Population.Fail(gossip.NodeID(i))
	}
	engine.Run(20)
	after, _ := engine.Agents()[0].Estimate()
	if after < before-1e-9 {
		t.Errorf("static sketch estimate shrank after failures: %v -> %v", before, after)
	}
}

// Duplicate delivery is harmless: merging the same sketch twice changes
// nothing (OR-idempotence).
func TestDuplicateInsensitive(t *testing.T) {
	a := NewCount(0, sketch.DefaultParams)
	b := NewCount(1, sketch.DefaultParams)
	payload := b.s.Clone()
	a.Receive(payload)
	onceEst, _ := a.Estimate()
	once := a.s.Clone()
	a.Receive(payload)
	a.Receive(payload)
	twiceEst, _ := a.Estimate()
	if onceEst != twiceEst {
		t.Errorf("estimate changed on duplicate merge: %v -> %v", onceEst, twiceEst)
	}
	if !a.s.Equal(once) {
		t.Error("bits changed on duplicate merge")
	}
}

// Exchange leaves both sketches identical (mutual OR).
func TestExchangeSymmetric(t *testing.T) {
	a := NewCount(0, sketch.DefaultParams)
	b := NewCount(1, sketch.DefaultParams)
	a.Exchange(b)
	if !a.s.Equal(b.s) {
		t.Error("sketches differ after Exchange")
	}
	ea, _ := a.Estimate()
	eb, _ := b.Estimate()
	if ea != eb {
		t.Errorf("estimates differ after Exchange: %v vs %v", ea, eb)
	}
}

func TestEmitSendsSketchToPeer(t *testing.T) {
	a := NewCount(0, sketch.DefaultParams)
	envs := a.Emit(0, nil, func() (gossip.NodeID, bool) { return 7, true })
	if len(envs) != 1 || envs[0].To != 7 {
		t.Fatalf("Emit = %+v, want one envelope to 7", envs)
	}
	if _, ok := envs[0].Payload.(*sketch.Sketch); !ok {
		t.Errorf("payload type %T, want *sketch.Sketch", envs[0].Payload)
	}
	// Isolated host emits nothing.
	if envs := a.Emit(0, nil, func() (gossip.NodeID, bool) { return 0, false }); len(envs) != 0 {
		t.Errorf("isolated Emit = %+v, want none", envs)
	}
}

// A sketch of a different shape can only arrive over a network
// transport (mis-configured peer or forged datagram); merging it
// would panic, so Receive must ignore it like any other lost message.
func TestReceiveIgnoresMismatchedSketchShape(t *testing.T) {
	n := NewCount(0, sketch.DefaultParams)
	before, _ := n.Estimate()
	alien := sketch.New(sketch.Params{Bins: 4, Levels: 8})
	alien.Insert(999)
	n.Receive(alien)
	if after, _ := n.Estimate(); after != before {
		t.Errorf("mismatched sketch changed the estimate %v -> %v", before, after)
	}
}
