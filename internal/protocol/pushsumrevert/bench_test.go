package pushsumrevert

import (
	"testing"

	"dynagg/internal/env"
	"dynagg/internal/gossip"
)

func benchNetwork(b *testing.B, n int, cfg Config, model gossip.Model) *gossip.Engine {
	b.Helper()
	e := env.NewUniform(n)
	agents := make([]gossip.Agent, n)
	for i := 0; i < n; i++ {
		agents[i] = New(gossip.NodeID(i), float64(i%100), cfg)
	}
	engine, err := gossip.NewEngine(gossip.Config{Env: e, Agents: agents, Model: model, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return engine
}

// BenchmarkRoundBasic measures one push round of basic Push-Sum-Revert
// over 10,000 hosts.
func BenchmarkRoundBasic(b *testing.B) {
	engine := benchNetwork(b, 10000, Config{Lambda: 0.01}, gossip.Push)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.Step()
	}
}

// BenchmarkRoundPushPull measures one push/pull round over 10,000
// hosts.
func BenchmarkRoundPushPull(b *testing.B) {
	engine := benchNetwork(b, 10000, Config{Lambda: 0.01}, gossip.PushPull)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.Step()
	}
}

// BenchmarkRoundFullTransfer measures one full-transfer round (4
// parcels) over 10,000 hosts.
func BenchmarkRoundFullTransfer(b *testing.B) {
	engine := benchNetwork(b, 10000, Config{Lambda: 0.1, FullTransfer: true, Parcels: 4, Window: 3}, gossip.Push)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.Step()
	}
}
