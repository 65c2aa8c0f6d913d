// Package integration holds cross-module tests: each test exercises a
// full pipeline — workload generation, environment, protocol, metrics —
// the way the experiments and examples do, asserting end-to-end
// behaviour rather than unit contracts.
package integration

import (
	"bytes"
	"math"
	"testing"
	"time"

	"dynagg/internal/env"
	"dynagg/internal/gossip"
	"dynagg/internal/metrics"
	"dynagg/internal/protocol/epoch"
	"dynagg/internal/protocol/multi"
	"dynagg/internal/protocol/pushsumrevert"
	"dynagg/internal/protocol/sketchreset"
	"dynagg/internal/sketch"
	"dynagg/internal/stats"
	"dynagg/internal/trace"
)

// Full trace pipeline: synthesize a trace, round-trip it through the
// interchange format, replay it as an environment, run the
// multi-aggregate protocol over it, and check group-relative error.
func TestTracePipeline(t *testing.T) {
	params := trace.Dataset2()
	params.Days = 2
	tr := trace.Generate(params)

	var buf bytes.Buffer
	if err := trace.Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	tr2, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}

	tenv := env.NewTraceEnv(tr2, 0, 0)
	values := make([]float64, tr2.N)
	for i := range values {
		values[i] = float64(10 + i)
	}
	agents := make([]gossip.Agent, tr2.N)
	for i := range agents {
		agents[i] = multi.New(gossip.NodeID(i), map[string]float64{"v": values[i]},
			sketchreset.Config{Params: sketch.DefaultParams, Identifiers: 100, Scale: 100},
			pushsumrevert.Config{Lambda: 0.01},
		)
	}
	var dev stats.Series
	engine, err := gossip.NewEngine(gossip.Config{
		Env: tenv, Agents: agents, Model: gossip.PushPull, Seed: 3,
		AfterRound: []gossip.Hook{
			metrics.GroupDeviationHook(&dev, nil, tenv, values, metrics.GroupAverage, 120, (*gossip.Engine).EstimateOf),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	engine.Run(tenv.Rounds())

	if dev.Len() == 0 {
		t.Fatal("no deviation samples recorded")
	}
	// Group-relative error must stay bounded by the value spread.
	for i, y := range dev.Y {
		if math.IsNaN(y) || y > float64(tr2.N)+10 {
			t.Fatalf("sample %d deviation %v unreasonable", i, y)
		}
	}
	// Every device ends with finite estimates for both aggregates.
	for id, a := range engine.Agents() {
		node := a.(*multi.Node)
		if v, ok := node.Average("v"); ok && (math.IsNaN(v) || math.IsInf(v, 0)) {
			t.Errorf("device %d average not finite: %v", id, v)
		}
		if s, ok := node.Size(); ok && (s < 0 || math.IsInf(s, 0)) {
			t.Errorf("device %d size estimate invalid: %v", id, s)
		}
	}
}

// CRAWDAD import feeds the same machinery: contact table → trace →
// environment → protocol.
func TestContactsPipeline(t *testing.T) {
	// A hand-written contact table: a triangle for an hour, then a
	// separate pair.
	src := "1 2 0 3600\n2 3 0 3600\n1 3 0 3600\n4 5 1800 7200\n"
	tr, err := trace.ReadContacts("triangle", bytes.NewReader([]byte(src)))
	if err != nil {
		t.Fatal(err)
	}
	tenv := env.NewTraceEnv(tr, 30*time.Second, 10*time.Minute)
	values := []float64{10, 20, 30, 100, 200}
	agents := make([]gossip.Agent, tr.N)
	for i := range agents {
		agents[i] = pushsumrevert.New(gossip.NodeID(i), values[i],
			pushsumrevert.Config{Lambda: 0.01})
	}
	engine, err := gossip.NewEngine(gossip.Config{
		Env: tenv, Agents: agents, Model: gossip.PushPull, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 45 simulated minutes: the triangle is connected throughout; the
	// pair links at the 30-minute mark and has 15 minutes to converge.
	engine.Run(90)

	// The triangle converges to its own average (20); devices 4 and 5
	// (linked from 30 min in) converge toward 150.
	for id := 0; id < 3; id++ {
		est, ok := engine.EstimateOf(gossip.NodeID(id))
		if !ok || math.Abs(est-20) > 2 {
			t.Errorf("triangle device %d estimate %v, want ≈ 20", id, est)
		}
	}
	e4, _ := engine.EstimateOf(3)
	e5, _ := engine.EstimateOf(4)
	if math.Abs(e4-150) > 10 || math.Abs(e5-150) > 10 {
		t.Errorf("pair estimates %v, %v; want ≈ 150", e4, e5)
	}
}

// Grid + Invert-Average: the composed sum estimate works on a spatial
// environment with a calibrated cutoff, and decays after a failure.
func TestGridInvertAverageSum(t *testing.T) {
	const side = 16
	grid := env.NewGrid(side, side, side)
	n := grid.Size()
	values := make([]float64, n)
	var want, survivors float64
	for i := range values {
		values[i] = float64(i%5 + 1)
		want += values[i]
		if i < n/2 {
			survivors += values[i]
		}
	}
	cutoff := func(k int) float64 { return 20 + float64(k)/2 }
	net := newNetwork(t, grid, 5, func(id gossip.NodeID) gossip.Agent {
		return invertAverage(id, values[id],
			sketchreset.Config{Params: sketch.DefaultParams, Cutoff: cutoff, Identifiers: 1},
			pushsumrevert.Config{Lambda: 0.05})
	})
	net.Run(50)
	est, ok := estimateOf(net, 0)
	if !ok || math.Abs(est-want) > 0.5*want {
		t.Errorf("grid sum estimate %v, want ≈ %v", est, want)
	}
	for id := n / 2; id < n; id++ {
		grid.Population.Fail(gossip.NodeID(id))
	}
	net.Run(40)
	est, ok = estimateOf(net, 0)
	if !ok || est >= want || math.Abs(est-survivors) > 0.5*survivors {
		t.Errorf("post-failure grid sum estimate %v, want below %v and ≈ %v", est, want, survivors)
	}
}

// Mobility + epoch baseline: epochs synchronize even when connectivity
// is proximity-limited, because mobility mixes the cliques.
func TestMobilityEpochSynchronization(t *testing.T) {
	mob, err := env.NewMobile(env.MobileConfig{
		N: 300, Width: 1200, Height: 1200, Range: 120,
		MinSpeed: 15, MaxSpeed: 45, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	agents := make([]gossip.Agent, 300)
	for i := range agents {
		agents[i] = epoch.New(gossip.NodeID(i), float64(i%10), epoch.Config{Length: 20, Maturity: 10})
	}
	engine, err := gossip.NewEngine(gossip.Config{
		Env: mob, Agents: agents, Model: gossip.Push, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	engine.Run(100)
	// All hosts should be within one epoch of each other.
	min, max := 1<<30, -1
	for _, a := range engine.Agents() {
		e := a.(*epoch.Node).Epoch()
		if e < min {
			min = e
		}
		if e > max {
			max = e
		}
	}
	if max-min > 1 {
		t.Errorf("epochs diverged under mobility: range [%d, %d]", min, max)
	}
}

// All aggregate kinds run against the same environment and agree with
// ground truth simultaneously.
func TestAllAggregatesAgree(t *testing.T) {
	const n = 500
	values := make([]float64, n)
	var sum, sq float64
	for i := range values {
		values[i] = float64(i % 80)
		sum += values[i]
		sq += values[i] * values[i]
	}
	mean := sum / n
	stddev := math.Sqrt(sq/n - mean*mean)

	avgCfg := pushsumrevert.Config{Lambda: 0.01}
	checks := []struct {
		name  string
		agent func(id gossip.NodeID) gossip.Agent
		want  float64
		tol   float64
	}{
		{"average", func(id gossip.NodeID) gossip.Agent {
			return pushsumrevert.New(id, values[id], avgCfg)
		}, mean, 2},
		{"count", func(id gossip.NodeID) gossip.Agent {
			return sketchreset.New(id, countConfig)
		}, n, 0.35 * n},
		{"sum", func(id gossip.NodeID) gossip.Agent {
			return invertAverage(id, values[id], countConfig, avgCfg)
		}, sum, 0.4 * sum},
		{"stddev", func(id gossip.NodeID) gossip.Agent {
			return pushsumrevert.NewMoments(id, values[id], pushsumrevert.Config{Lambda: 0.01})
		}, stddev, 3},
	}
	for _, c := range checks {
		net := newNetwork(t, env.NewUniform(n), 8, c.agent)
		net.Run(30)
		est, ok := estimateOf(net, 7)
		if !ok {
			t.Errorf("%s: no estimate", c.name)
			continue
		}
		if math.Abs(est-c.want) > c.tol {
			t.Errorf("%s: estimate %v, want %v ± %v", c.name, est, c.want, c.tol)
		}
	}
}
