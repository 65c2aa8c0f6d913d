package sketchreset

import (
	"testing"

	"dynagg/internal/env"
	"dynagg/internal/gossip"
	"dynagg/internal/sketch"
)

// BenchmarkRound measures one push/pull Count-Sketch-Reset round over
// 2,000 hosts with the paper's 64×24 sketch — the protocol's gossip
// payload is the full counter matrix, so this dominates the cost of
// the counting experiments.
func BenchmarkRound(b *testing.B) {
	const n = 2000
	e := env.NewUniform(n)
	agents := make([]gossip.Agent, n)
	for i := 0; i < n; i++ {
		agents[i] = New(gossip.NodeID(i), Config{Params: sketch.DefaultParams, Identifiers: 1})
	}
	engine, err := gossip.NewEngine(gossip.Config{Env: e, Agents: agents, Model: gossip.PushPull, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.Step()
	}
}

// BenchmarkMinMerge measures a single counter-matrix min-merge.
func BenchmarkMinMerge(b *testing.B) {
	n1 := New(0, Config{Params: sketch.DefaultParams, Identifiers: 1})
	other := make([]uint8, sketch.DefaultParams.Bins*sketch.DefaultParams.Levels)
	for i := range other {
		other[i] = uint8(i % 250)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n1.minMerge(other)
	}
}

// BenchmarkEstimate measures deriving the bit array and FM estimate
// from the counter matrix.
func BenchmarkEstimate(b *testing.B) {
	n1 := New(0, Config{Params: sketch.DefaultParams, Identifiers: 1})
	buf := make([]uint8, sketch.DefaultParams.Bins*sketch.DefaultParams.Levels)
	for i := range buf {
		buf[i] = uint8(i % 12)
	}
	n1.Receive(buf)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		estimateSink = estimate(n1.counters, n1.cutoff, n1.cfg.Scale)
	}
}

var estimateSink float64
