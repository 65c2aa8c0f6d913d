package multi

import (
	"math"
	"testing"

	"dynagg/internal/env"
	"dynagg/internal/gossip"
	"dynagg/internal/protocol/pushsumrevert"
	"dynagg/internal/protocol/sketchreset"
	"dynagg/internal/sketch"
)

// buildWithObserver wires n regular hosts plus one observer at id n
// into a classic round engine.
func buildWithObserver(t *testing.T, n int, mk func(i int) map[string]float64, lambda float64, observerNames []string, seed uint64) (*gossip.Engine, *Node) {
	t.Helper()
	e := env.NewUniform(n + 1)
	agents := make([]gossip.Agent, n+1)
	countCfg := sketchreset.Config{Params: sketch.DefaultParams, Identifiers: 1}
	avgCfg := pushsumrevert.Config{Lambda: lambda}
	for i := 0; i < n; i++ {
		agents[i] = New(gossip.NodeID(i), mk(i), countCfg, avgCfg)
	}
	obs := NewObserver(gossip.NodeID(n), observerNames, countCfg, avgCfg)
	agents[n] = obs
	engine, err := gossip.NewEngine(gossip.Config{Env: e, Agents: agents, Model: gossip.Push, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return engine, obs
}

func TestObserverConvergesWithoutBias(t *testing.T) {
	const n = 64
	mk := func(i int) map[string]float64 {
		return map[string]float64{"load": float64(i % 10), "temp": 20 + float64(i%5)}
	}
	engine, obs := buildWithObserver(t, n, mk, 0.05, []string{"load", "temp"}, 7)
	if !obs.Observer() {
		t.Fatal("Observer() = false")
	}
	if _, ok := obs.Average("load"); ok {
		t.Fatal("observer reported an estimate before any gossip")
	}
	for r := 0; r < 90; r++ {
		engine.Step()
	}
	// A single observer snapshot fluctuates (it holds little mass, so
	// its instantaneous v/w ratio averages over few parcels); sample a
	// trailing window like the gateway's smoothed reads do.
	samples := map[string]float64{}
	const window = 30
	for r := 0; r < window; r++ {
		engine.Step()
		for _, name := range []string{"load", "temp"} {
			got, ok := obs.Average(name)
			if !ok {
				t.Fatalf("observer has no estimate for %q after %d rounds", name, 90+r)
			}
			samples[name] += got / window
		}
	}
	var truthLoad, truthTemp float64
	for i := 0; i < n; i++ {
		truthLoad += float64(i%10) / n
		truthTemp += (20 + float64(i%5)) / n
	}
	for name, truth := range map[string]float64{"load": truthLoad, "temp": truthTemp} {
		if got := samples[name]; math.Abs(got-truth) > 0.08*math.Abs(truth) {
			t.Errorf("observer %s = %v (window mean), truth %v", name, got, truth)
		}
	}
	// The observer owns no sketch identifiers; its size estimate must
	// track what the population itself reports (the sketch's absolute
	// bias at small n is a sketch property, not an observer artifact).
	size, ok := obs.Size()
	if !ok {
		t.Fatal("observer has no size estimate")
	}
	host := engine.Agent(0).(*Node)
	ref, _ := host.Size()
	if math.Abs(size-ref) > 0.35*ref {
		t.Errorf("observer size = %v, population reports %v", size, ref)
	}
}

func TestObserverAutoRegistersUnknownNames(t *testing.T) {
	obs := NewObserver(9, nil, sketchreset.Config{Params: sketch.DefaultParams}, pushsumrevert.Config{})
	if got := obs.Names(); len(got) != 0 {
		t.Fatalf("fresh observer Names = %v", got)
	}
	obs.BeginRound(0)
	obs.Receive(Bundle{Masses: []NamedMass{{"cpu", pushsumrevert.Mass{W: 0.5, V: 1.5}}}})
	obs.EndRound(0)
	if got := obs.Names(); len(got) != 1 || got[0] != "cpu" {
		t.Fatalf("Names after unknown mass = %v", got)
	}
	avg, ok := obs.Average("cpu")
	if !ok || math.Abs(avg-3) > 1e-9 {
		t.Errorf("Average(cpu) = %v, %v; want 3 (= 1.5/0.5)", avg, ok)
	}
}

func TestResolverRegistersOnRegularHost(t *testing.T) {
	h := New(1, map[string]float64{"seed": 1},
		sketchreset.Config{Params: sketch.DefaultParams},
		pushsumrevert.Config{Lambda: 0.1})
	resolved := 0
	h.SetResolver(func(name string) (float64, bool) {
		resolved++
		if name == "mem" {
			return 42, true
		}
		return 0, false
	})
	h.BeginRound(0)
	h.Receive(Bundle{Masses: []NamedMass{
		{"mem", pushsumrevert.Mass{W: 0.25, V: 0.25 * 10}},
		{"secret", pushsumrevert.Mass{W: 1, V: 1}},
	}})
	h.EndRound(0)
	if resolved != 2 {
		t.Errorf("resolver consulted %d times, want 2", resolved)
	}
	names := h.Names()
	if len(names) != 2 || names[0] != "mem" || names[1] != "seed" {
		t.Fatalf("Names = %v, want [mem seed]", names)
	}
	agg, _ := h.Agg("mem")
	if agg.Value() != 42 {
		t.Errorf("resolved local value = %v, want 42", agg.Value())
	}
	if _, ok := h.Agg("secret"); ok {
		t.Error("name the resolver refused was registered anyway")
	}
}

func TestRegisterIdempotentAndSorted(t *testing.T) {
	h := New(1, map[string]float64{"m": 1},
		sketchreset.Config{Params: sketch.DefaultParams},
		pushsumrevert.Config{})
	if !h.Register("a", 2) || !h.Register("z", 3) {
		t.Fatal("Register of new names returned false")
	}
	if h.Register("a", 99) {
		t.Fatal("Register of existing name returned true")
	}
	names := h.Names()
	if len(names) != 3 || names[0] != "a" || names[1] != "m" || names[2] != "z" {
		t.Fatalf("Names = %v, want sorted [a m z]", names)
	}
}

// TestDynamicRegistrationPropagates exercises the gateway's epoch-
// rollover story end to end in the round engine: one host registers a
// new aggregate mid-run, every other host resolves it locally, and the
// population (including a late observer) converges on the new
// aggregate's true average.
func TestDynamicRegistrationPropagates(t *testing.T) {
	const n = 48
	e := env.NewUniform(n + 1)
	agents := make([]gossip.Agent, n+1)
	countCfg := sketchreset.Config{Params: sketch.DefaultParams, Identifiers: 1}
	avgCfg := pushsumrevert.Config{Lambda: 0.1}
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		nodes[i] = New(gossip.NodeID(i), map[string]float64{"base": 1}, countCfg, avgCfg)
		i := i
		nodes[i].SetResolver(func(name string) (float64, bool) {
			if name == "late" {
				return float64(i % 4), true
			}
			return 0, false
		})
		agents[i] = nodes[i]
	}
	obs := NewObserver(gossip.NodeID(n), nil, countCfg, avgCfg)
	agents[n] = obs
	engine, err := gossip.NewEngine(gossip.Config{Env: e, Agents: agents, Model: gossip.Push, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 30; r++ {
		engine.Step()
	}
	nodes[0].Register("late", 0)
	for r := 0; r < 170; r++ {
		engine.Step()
	}
	registered := 0
	for _, h := range nodes {
		if _, ok := h.Agg("late"); ok {
			registered++
		}
	}
	if registered != n {
		t.Fatalf("aggregate spread to %d/%d hosts", registered, n)
	}
	// Trailing-window mean, as in TestObserverConvergesWithoutBias.
	var got float64
	const window = 30
	for r := 0; r < window; r++ {
		engine.Step()
		v, ok := obs.Average("late")
		if !ok {
			t.Fatal("observer never heard the late aggregate")
		}
		got += v / window
	}
	var truth float64
	for i := 0; i < n; i++ {
		truth += float64(i%4) / n
	}
	if math.Abs(got-truth) > 0.15*truth {
		t.Errorf("observer late = %v (window mean), truth %v", got, truth)
	}
}
