package integration

import (
	"math"
	"testing"

	"dynagg/internal/env"
	"dynagg/internal/gossip"
	"dynagg/internal/metrics"
	"dynagg/internal/protocol/extremes"
	"dynagg/internal/protocol/multi"
	"dynagg/internal/protocol/pushsumrevert"
	"dynagg/internal/protocol/sketchreset"
	"dynagg/internal/sketch"
	"dynagg/internal/xrand"
)

// newNetwork assembles a network the one way the repository does: one
// agent per host of e from a protocol constructor, driven by a
// push/pull round engine.
func newNetwork(t *testing.T, e gossip.Environment, seed uint64, agent func(id gossip.NodeID) gossip.Agent) *gossip.Engine {
	t.Helper()
	agents := make([]gossip.Agent, e.Size())
	for i := range agents {
		agents[i] = agent(gossip.NodeID(i))
	}
	engine, err := gossip.NewEngine(gossip.Config{Env: e, Agents: agents, Model: gossip.PushPull, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return engine
}

// uniformValues is the paper's standard workload: n values uniform in
// [0, 100).
func uniformValues(n int, seed uint64) []float64 {
	rng := xrand.New(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.Float64() * 100
	}
	return out
}

// countConfig is Count-Sketch-Reset counting hosts: one identifier per
// host on the paper's 64 × 24 sketch.
var countConfig = sketchreset.Config{Params: sketch.DefaultParams, Identifiers: 1}

// liveRead reads one named aggregate off host id's multi node, and
// only while the host is alive: a departed host has no estimate.
func liveRead(e *gossip.Engine, id gossip.NodeID, read func(*multi.Node, string) (float64, bool), name string) (float64, bool) {
	if !e.Env().Alive(id, e.Round()) {
		return 0, false
	}
	return read(e.Agent(id).(*multi.Node), name)
}

// sumName is the one aggregate of an Invert-Average host.
const sumName = "sum"

// invertAverage builds the paper's Invert-Average host (§IV-B): multi
// with one named aggregate, whose Sum is the estimate.
func invertAverage(id gossip.NodeID, value float64, countCfg sketchreset.Config, avgCfg pushsumrevert.Config) gossip.Agent {
	return multi.New(id, map[string]float64{sumName: value}, countCfg, avgCfg)
}

// estimateOf reads host id's estimate: the Invert-Average sum off a
// multi host, the agent's own estimate otherwise.
func estimateOf(e *gossip.Engine, id gossip.NodeID) (float64, bool) {
	if _, ok := e.Agent(id).(*multi.Node); ok {
		return liveRead(e, id, (*multi.Node).Sum, sumName)
	}
	return e.EstimateOf(id)
}

func TestAverageNetworkConverges(t *testing.T) {
	const n = 500
	e := env.NewUniform(n)
	values := uniformValues(n, 3)
	net := newNetwork(t, e, 1, func(id gossip.NodeID) gossip.Agent {
		return pushsumrevert.New(id, values[id], pushsumrevert.Config{Lambda: 0.01, PushPull: true})
	})
	truth := metrics.NewTruth(values, e.Population)
	net.Run(30)
	if net.Round() != 30 {
		t.Errorf("Round = %d", net.Round())
	}
	est, ok := net.EstimateOf(0)
	if !ok {
		t.Fatal("no estimate at host 0")
	}
	if math.Abs(est-truth.Average()) > 5 {
		t.Errorf("estimate %v, truth %v", est, truth.Average())
	}
	if len(net.Estimates()) != n {
		t.Errorf("Estimates count %d", len(net.Estimates()))
	}
	if net.Messages() == 0 {
		t.Error("no messages counted")
	}
}

func TestWeightedAverageNetwork(t *testing.T) {
	const n = 400
	e := env.NewUniform(n)
	values := make([]float64, n)
	weights := make([]float64, n)
	var num, den float64
	for i := range values {
		values[i] = float64(i % 50)
		weights[i] = 1 + float64(i%3)
		num += weights[i] * values[i]
		den += weights[i]
	}
	net := newNetwork(t, e, 11, func(id gossip.NodeID) gossip.Agent {
		return pushsumrevert.New(id, values[id],
			pushsumrevert.Config{Lambda: 0.01, PushPull: true, Weight: weights[id]})
	})
	net.Run(30)
	want := num / den
	est, _ := net.EstimateOf(0)
	if math.Abs(est-want) > 2 {
		t.Errorf("weighted estimate %v, want ≈ %v", est, want)
	}
}

func TestCountNetwork(t *testing.T) {
	const n = 1000
	net := newNetwork(t, env.NewUniform(n), 3, func(id gossip.NodeID) gossip.Agent {
		return sketchreset.New(id, countConfig)
	})
	net.Run(25)
	est, ok := net.EstimateOf(0)
	if !ok {
		t.Fatal("no count estimate")
	}
	if math.Abs(est-n) > 0.35*n {
		t.Errorf("count estimate %v, want ≈ %d", est, n)
	}
}

func TestCountNetworkSelfHeals(t *testing.T) {
	const n = 1000
	e := env.NewUniform(n)
	net := newNetwork(t, e, 4, func(id gossip.NodeID) gossip.Agent {
		return sketchreset.New(id, countConfig)
	})
	net.Run(20)
	for i := 0; i < n/2; i++ {
		e.Population.Fail(gossip.NodeID(i))
	}
	net.Run(25)
	var mean float64
	ests := net.Estimates()
	for _, v := range ests {
		mean += v
	}
	mean /= float64(len(ests))
	if math.Abs(mean-n/2) > 0.45*n/2 {
		t.Errorf("post-failure count %v, want ≈ %d", mean, n/2)
	}
}

// The three ways to sum: Invert-Average (§IV-B), multiple insertions
// into a Count-Sketch-Reset sketch, and the static sketch baseline
// (the same insertions read with an infinite cutoff).
func TestSumNetworkAllMethods(t *testing.T) {
	const n = 500
	values := make([]float64, n)
	var want float64
	for i := range values {
		values[i] = float64(i % 7)
		want += values[i]
	}
	for _, m := range []struct {
		name  string
		agent func(id gossip.NodeID) gossip.Agent
	}{
		{"invert-average", func(id gossip.NodeID) gossip.Agent {
			return invertAverage(id, values[id], countConfig, pushsumrevert.Config{Lambda: 0.01, PushPull: true})
		}},
		{"multiple-insertions", func(id gossip.NodeID) gossip.Agent {
			return sketchreset.New(id, sketchreset.Config{Params: sketch.DefaultParams, Identifiers: int(values[id])})
		}},
		{"static-sketch", func(id gossip.NodeID) gossip.Agent {
			return sketchreset.New(id, sketchreset.Config{Params: sketch.DefaultParams, Identifiers: int(values[id]), NoDecay: true})
		}},
	} {
		net := newNetwork(t, env.NewUniform(n), 5, m.agent)
		net.Run(25)
		est, ok := estimateOf(net, 10)
		if !ok {
			t.Fatalf("%s: no estimate", m.name)
		}
		if math.Abs(est-want) > 0.5*want {
			t.Errorf("%s: estimate %v, want %v ± 50%%", m.name, est, want)
		}
	}
}

func TestPushSumBaseline(t *testing.T) {
	const n = 300
	e := env.NewUniform(n)
	values := uniformValues(n, 6)
	net := newNetwork(t, e, 7, func(id gossip.NodeID) gossip.Agent {
		return pushsumrevert.New(id, values[id], pushsumrevert.Config{PushPull: true})
	})
	net.Run(25)
	truth := metrics.NewTruth(values, e.Population)
	est, _ := net.EstimateOf(0)
	if math.Abs(est-truth.Average()) > 1 {
		t.Errorf("baseline estimate %v, truth %v", est, truth.Average())
	}
}

func TestCountCustomSketchAndCutoff(t *testing.T) {
	const n = 200
	cfg := sketchreset.Config{
		Params:      sketch.Params{Bins: 32, Levels: 16},
		Cutoff:      func(k int) float64 { return 12 + float64(k)/2 },
		Identifiers: 1,
	}
	net := newNetwork(t, env.NewUniform(n), 8, func(id gossip.NodeID) gossip.Agent {
		return sketchreset.New(id, cfg)
	})
	net.Run(20)
	est, ok := net.EstimateOf(0)
	if !ok || est <= 0 {
		t.Errorf("estimate = %v, %v", est, ok)
	}
}

func TestEstimateOfDeadHost(t *testing.T) {
	e := env.NewUniform(5)
	net := newNetwork(t, e, 9, func(id gossip.NodeID) gossip.Agent {
		return pushsumrevert.New(id, 0, pushsumrevert.Config{PushPull: true})
	})
	e.Population.Fail(2)
	if _, ok := net.EstimateOf(2); ok {
		t.Error("dead host returned an estimate")
	}
	if got := len(net.Estimates()); got != 4 {
		t.Errorf("Estimates over 4 live hosts returned %d", got)
	}
}

func TestStdDevConverges(t *testing.T) {
	const n = 500
	values := make([]float64, n)
	var sum, sq float64
	for i := range values {
		values[i] = float64(i % 100)
		sum += values[i]
		sq += values[i] * values[i]
	}
	mean := sum / n
	want := math.Sqrt(sq/n - mean*mean)

	net := newNetwork(t, env.NewUniform(n), 1, func(id gossip.NodeID) gossip.Agent {
		return pushsumrevert.NewMoments(id, values[id], pushsumrevert.Config{Lambda: 0.01, PushPull: true})
	})
	net.Run(40)
	est, ok := net.EstimateOf(0)
	if !ok {
		t.Fatal("no estimate")
	}
	if math.Abs(est-want) > 0.1*want {
		t.Errorf("stddev estimate %v, want ≈ %v", est, want)
	}
	// The richer API is reachable through the engine.
	node := net.Agent(0).(*pushsumrevert.Node)
	if m, _, _ := node.Moments(); math.Abs(m-mean) > 0.1*mean {
		t.Errorf("mean via node %v, want ≈ %v", m, mean)
	}
}

func TestExtremumMaxSelfHeals(t *testing.T) {
	const n = 300
	e := env.NewUniform(n)
	net := newNetwork(t, e, 2, func(id gossip.NodeID) gossip.Agent {
		return extremes.New(id, float64(id), extremes.Config{Mode: extremes.Max, Cutoff: 12})
	})
	net.Run(15)
	if est, _ := net.EstimateOf(0); est != n-1 {
		t.Fatalf("max estimate %v, want %d", est, n-1)
	}
	e.Population.Fail(gossip.NodeID(n - 1))
	net.Run(40)
	if est, _ := net.EstimateOf(0); est != n-2 {
		t.Errorf("max after departure %v, want %d", est, n-2)
	}
}

func TestExtremumMin(t *testing.T) {
	const n = 200
	net := newNetwork(t, env.NewUniform(n), 3, func(id gossip.NodeID) gossip.Agent {
		return extremes.New(id, float64(100+id), extremes.Config{Mode: extremes.Min})
	})
	net.Run(15)
	if est, _ := net.EstimateOf(5); est != 100 {
		t.Errorf("min estimate %v, want 100", est)
	}
}

// One shared Count-Sketch-Reset sketch amortized over two named
// Push-Sum-Revert aggregates (the paper's Figure 7 in full).
func TestMultiNetworkEndToEnd(t *testing.T) {
	const n = 600
	e := env.NewUniform(n)
	net := newNetwork(t, e, 4, func(id gossip.NodeID) gossip.Agent {
		return multi.New(id, map[string]float64{"temp": float64(id % 40), "load": float64(id % 10)},
			countConfig, pushsumrevert.Config{Lambda: 0.01, PushPull: true})
	})
	net.Run(25)
	average, sum := (*multi.Node).Average, (*multi.Node).Sum
	if avg, ok := liveRead(net, 0, average, "temp"); !ok || math.Abs(avg-19.5) > 2 {
		t.Errorf("temp average %v, %v", avg, ok)
	}
	if avg, ok := liveRead(net, 0, average, "load"); !ok || math.Abs(avg-4.5) > 1 {
		t.Errorf("load average %v, %v", avg, ok)
	}
	if size, ok := net.EstimateOf(0); !ok || math.Abs(size-n) > 0.35*n {
		t.Errorf("size %v, %v", size, ok)
	}
	wantSum := 4.5 * n
	if s, ok := liveRead(net, 0, sum, "load"); !ok || math.Abs(s-wantSum) > 0.4*wantSum {
		t.Errorf("load sum %v, %v; want ≈ %v", s, ok, wantSum)
	}
	if _, ok := liveRead(net, 0, average, "nope"); ok {
		t.Error("unknown aggregate accepted")
	}
	e.Population.Fail(0)
	if _, ok := liveRead(net, 0, average, "temp"); ok {
		t.Error("dead host returned an estimate")
	}
	if _, ok := liveRead(net, 0, sum, "temp"); ok {
		t.Error("dead host returned a sum")
	}
}
