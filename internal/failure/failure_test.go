package failure

import (
	"testing"

	"dynagg/internal/env"
	"dynagg/internal/gossip"
	"dynagg/internal/protocol/pushsumrevert"
)

// newEngine builds a minimal engine over the population so hooks can be
// driven through real rounds.
func newEngine(t *testing.T, u *env.Uniform, hooks []gossip.Hook) *gossip.Engine {
	t.Helper()
	agents := make([]gossip.Agent, u.Size())
	for i := range agents {
		agents[i] = pushsumrevert.New(gossip.NodeID(i), float64(i), pushsumrevert.Config{})
	}
	e, err := gossip.NewEngine(gossip.Config{
		Env: u, Agents: agents, Model: gossip.Push, Seed: 1, BeforeRound: hooks,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestRandomAtFailsFraction(t *testing.T) {
	u := env.NewUniform(100)
	e := newEngine(t, u, []gossip.Hook{RandomAt(2, 0.5, u.Population, 7)})
	e.Run(2)
	if u.AliveCount() != 100 {
		t.Fatalf("hook fired early: %d alive", u.AliveCount())
	}
	e.Step() // round 2
	if u.AliveCount() != 50 {
		t.Errorf("alive after RandomAt(0.5) = %d, want 50", u.AliveCount())
	}
	e.Run(3)
	if u.AliveCount() != 50 {
		t.Errorf("hook fired again: %d alive", u.AliveCount())
	}
}

func TestRandomAtDeterministic(t *testing.T) {
	survivors := func() map[gossip.NodeID]bool {
		u := env.NewUniform(60)
		e := newEngine(t, u, []gossip.Hook{RandomAt(0, 0.3, u.Population, 42)})
		e.Step()
		out := map[gossip.NodeID]bool{}
		for _, id := range u.AliveIDs() {
			out[id] = true
		}
		return out
	}
	a, b := survivors(), survivors()
	if len(a) != len(b) {
		t.Fatalf("different survivor counts: %d vs %d", len(a), len(b))
	}
	for id := range a {
		if !b[id] {
			t.Fatalf("survivor sets differ at %d", id)
		}
	}
}

func TestTopValuedAtFailsHighest(t *testing.T) {
	u := env.NewUniform(10)
	values := []float64{5, 1, 9, 3, 7, 2, 8, 0, 6, 4}
	e := newEngine(t, u, []gossip.Hook{TopValuedAt(0, 0.5, u.Population, values)})
	e.Step()
	if u.AliveCount() != 5 {
		t.Fatalf("alive = %d, want 5", u.AliveCount())
	}
	// Survivors must be the lowest-valued half: values 0..4.
	for _, id := range u.AliveIDs() {
		if values[id] >= 5 {
			t.Errorf("high-valued host %d (value %v) survived", id, values[id])
		}
	}
}

func TestTopValuedAtTieBreaksById(t *testing.T) {
	u := env.NewUniform(4)
	values := []float64{1, 1, 1, 1}
	e := newEngine(t, u, []gossip.Hook{TopValuedAt(0, 0.5, u.Population, values)})
	e.Step()
	// Deterministic: ties sort ascending by id, so the lowest ids are
	// failed first and the highest survive.
	if u.Population.Alive(0) || u.Population.Alive(1) || !u.Population.Alive(2) || !u.Population.Alive(3) {
		t.Errorf("tie-break wrong: alive = %v %v %v %v",
			u.Population.Alive(0), u.Population.Alive(1), u.Population.Alive(2), u.Population.Alive(3))
	}
}

func TestChurnKeepsPopulationInMotion(t *testing.T) {
	u := env.NewUniform(200)
	e := newEngine(t, u, []gossip.Hook{Churn(0, 0.05, u.Population, 3)})
	e.Run(40)
	alive := u.AliveCount()
	// Churn fails and revives at the same rate; the population should
	// hover near its size, never drain.
	if alive < 100 || alive > 200 {
		t.Errorf("alive after churn = %d, want 100..200", alive)
	}
	// At least someone must have died at some point.
	dead := 0
	for i := 0; i < u.Size(); i++ {
		if !u.Population.Alive(gossip.NodeID(i)) {
			dead++
		}
	}
	if dead == 0 {
		t.Error("churn never failed anyone")
	}
}

func TestChurnStartsAtRound(t *testing.T) {
	u := env.NewUniform(100)
	e := newEngine(t, u, []gossip.Hook{Churn(5, 0.5, u.Population, 4)})
	e.Run(5)
	if u.AliveCount() != 100 {
		t.Errorf("churn fired before its start round: %d alive", u.AliveCount())
	}
}

func TestFailAndReviveSet(t *testing.T) {
	u := env.NewUniform(10)
	ids := []gossip.NodeID{1, 3, 5}
	e := newEngine(t, u, []gossip.Hook{
		FailSet(1, ids, u.Population),
		ReviveSet(3, ids, u.Population),
	})
	e.Run(2)
	for _, id := range ids {
		if u.Population.Alive(id) {
			t.Errorf("host %d alive after FailSet", id)
		}
	}
	if u.AliveCount() != 7 {
		t.Errorf("alive = %d, want 7", u.AliveCount())
	}
	e.Run(2)
	for _, id := range ids {
		if !u.Population.Alive(id) {
			t.Errorf("host %d dead after ReviveSet", id)
		}
	}
	if u.AliveCount() != 10 {
		t.Errorf("alive = %d, want 10", u.AliveCount())
	}
}
