package live

import (
	"testing"

	"dynagg/internal/env"
	"dynagg/internal/gossip"
)

// TestLiveAgentPopulationAliasesSlice pins the aliasing contract of
// the agent backend: the population wraps the exact slice it was given
// — same backing array, not a copy — because callers mutate agents
// after New and expect the engine to see it.
func TestLiveAgentPopulationAliasesSlice(t *testing.T) {
	const n = 32
	u := env.NewUniform(n)
	agents, _ := pushSumAgents(n)
	e, err := New(Config{Env: u, Population: NewAgentPopulation(agents), Model: gossip.Push, Seed: 1, Ticks: 1})
	if err != nil {
		t.Fatal(err)
	}
	ap, ok := e.Population().(*AgentPopulation)
	if !ok {
		t.Fatalf("Population() = %T, want *AgentPopulation", e.Population())
	}
	got := ap.Agents()
	if len(got) != n || &got[0] != &agents[0] {
		t.Error("AgentPopulation must alias the slice it was built from, not copy it")
	}
}

// TestLivePopulationConfigValidation pins the New-time check on the
// Population field: it is required.
func TestLivePopulationConfigValidation(t *testing.T) {
	u := env.NewUniform(4)
	agents, _ := pushSumAgents(4)

	if _, err := New(Config{Env: u, Ticks: 1}); err == nil {
		t.Error("nil Population accepted")
	}
	if _, err := New(Config{Env: u, Ticks: 1, Population: NewAgentPopulation(agents)}); err != nil {
		t.Errorf("valid Population config rejected: %v", err)
	}
}
