package sketchreset

import (
	"math"
	"testing"

	"dynagg/internal/env"
	"dynagg/internal/failure"
	"dynagg/internal/gossip"
	"dynagg/internal/sketch"
)

// Long-run stability under continuous churn: the count estimate keeps
// tracking the live population as hosts continuously leave and rejoin.
func TestCountTracksUnderContinuousChurn(t *testing.T) {
	const (
		n      = 1500
		rounds = 150
		rate   = 0.02
	)
	run := func(noDecay bool) (worstRel float64) {
		e := env.NewUniform(n)
		agents := make([]gossip.Agent, n)
		for i := 0; i < n; i++ {
			agents[i] = New(gossip.NodeID(i), Config{
				Params: sketch.DefaultParams, Identifiers: 1, NoDecay: noDecay,
			})
		}
		engine, err := gossip.NewEngine(gossip.Config{
			Env: e, Agents: agents, Model: gossip.PushPull, Seed: 51,
			BeforeRound: []gossip.Hook{failure.ChurnStorm(20, 1, 1, rate, e.Population, 53)},
			AfterRound: []gossip.Hook{func(round int, eng *gossip.Engine) {
				if round < 40 { // let the protocol settle into the churn regime
					return
				}
				truth := float64(e.Population.AliveCount())
				var sum float64
				cnt := 0
				for _, est := range eng.Estimates() {
					sum += est
					cnt++
				}
				if cnt == 0 {
					return
				}
				rel := math.Abs(sum/float64(cnt)-truth) / truth
				if rel > worstRel {
					worstRel = rel
				}
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		engine.Run(rounds)
		return worstRel
	}

	dynamic := run(false)
	static := run(true)
	// FM noise is ±10%; churn detection lag (the f(k) aging delay) adds
	// a transient factor on top. The estimate must stay inside a
	// factor-of-two band at all times — the failure mode being excluded
	// is the static sketch's drift toward counting everyone who ever
	// participated (≈ 100% error once churn halves the population).
	if dynamic > 0.85 {
		t.Errorf("worst relative count error %v under churn, want < 0.85", dynamic)
	}
	if static < dynamic {
		t.Errorf("static sketch (worst %v) outperformed the dynamic one (%v) under churn", static, dynamic)
	}
}

// A join wave is reflected promptly: revived hosts re-pin their
// identifiers and the estimate climbs back.
func TestCountRecoversAfterRejoin(t *testing.T) {
	const n = 1500
	e := env.NewUniform(n)
	agents := make([]gossip.Agent, n)
	for i := 0; i < n; i++ {
		agents[i] = New(gossip.NodeID(i), Config{Params: sketch.DefaultParams, Identifiers: 1})
	}
	engine, err := gossip.NewEngine(gossip.Config{
		Env: e, Agents: agents, Model: gossip.PushPull, Seed: 61,
	})
	if err != nil {
		t.Fatal(err)
	}
	engine.Run(20)
	for i := 0; i < n/2; i++ {
		e.Population.Fail(gossip.NodeID(i))
	}
	engine.Run(30) // decay to ~n/2
	for i := 0; i < n/2; i++ {
		e.Population.Revive(gossip.NodeID(i))
	}
	engine.Run(20) // re-flood to ~n
	var mean float64
	ests := engine.Estimates()
	for _, v := range ests {
		mean += v
	}
	mean /= float64(len(ests))
	if math.Abs(mean-n) > 0.4*n {
		t.Errorf("estimate %v after rejoin, want ≈ %d", mean, n)
	}
}
