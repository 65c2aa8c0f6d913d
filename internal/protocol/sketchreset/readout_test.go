package sketchreset

import (
	"bytes"
	"math"
	"testing"

	"dynagg/internal/env"
	"dynagg/internal/failure"
	"dynagg/internal/gossip"
)

// TestReadSideNeverFeedsBack runs populations that differ only in
// Cutoff, NoDecay and Scale side by side, under the same seed,
// environment and failure schedule, on both backends and both gossip
// models. After every round each host's age matrix must be the same
// in all of them, and a population read through another's Readout must
// give that population's own Estimate bit for bit. This is what lets a
// figure read every cutoff of a sweep off one simulation: a kernel
// whose aging, merging or peer choice looked at the read side would
// fail here.
func TestReadSideNeverFeedsBack(t *testing.T) {
	const hosts, rounds = 200, 45
	base := Config{Params: smallParams, Identifiers: 2}
	variants := map[string]Config{
		"tight cutoff": {Params: smallParams, Identifiers: 2, Scale: 3,
			Cutoff: func(k int) float64 { return 2 + float64(k)/8 }},
		"no decay": {Params: smallParams, Identifiers: 2, Scale: 0.5, NoDecay: true,
			Cutoff: func(k int) float64 { return 30 }},
	}
	type population struct {
		engine *gossip.Engine
		matrix func(id int) []uint8
	}
	build := func(cfg Config, columnar bool, model gossip.Model) population {
		e := env.NewUniform(hosts)
		ec := gossip.Config{
			Env: e, Model: model, Seed: 17,
			BeforeRound: []gossip.Hook{
				failure.RandomAt(12, 0.5, e.Population, 19),
				failure.ChurnStorm(20, 1, 1, 0.05, e.Population, 23),
			},
		}
		var p population
		if columnar {
			c := NewColumnar(hosts, cfg)
			ec.Columnar = c
			p.matrix = c.block
		} else {
			nodes := make([]*Node, hosts)
			ec.Agents = make([]gossip.Agent, hosts)
			for i := range nodes {
				nodes[i] = New(gossip.NodeID(i), cfg)
				ec.Agents[i] = nodes[i]
			}
			p.matrix = func(id int) []uint8 { return nodes[id].counters }
		}
		engine, err := gossip.NewEngine(ec)
		if err != nil {
			t.Fatal(err)
		}
		p.engine = engine
		return p
	}
	for _, columnar := range []bool{false, true} {
		for _, model := range []gossip.Model{gossip.Push, gossip.PushPull} {
			for name, cfg := range variants {
				a, b := build(base, columnar, model), build(cfg, columnar, model)
				read := NewReadout(cfg)
				for r := 0; r < rounds; r++ {
					a.engine.Step()
					b.engine.Step()
					for id := 0; id < hosts; id++ {
						if !bytes.Equal(a.matrix(id), b.matrix(id)) {
							t.Fatalf("columnar=%v model %d, %s: round %d: host %d's matrix differs from the base population's",
								columnar, model, name, r, id)
						}
						got, gotOK := read.EstimateOf(a.engine, gossip.NodeID(id))
						want, wantOK := b.engine.EstimateOf(gossip.NodeID(id))
						if gotOK != wantOK || math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("columnar=%v model %d, %s: round %d: host %d read through the Readout gives %v (%v), its own Estimate %v (%v)",
								columnar, model, name, r, id, got, gotOK, want, wantOK)
						}
					}
				}
			}
		}
	}
}
