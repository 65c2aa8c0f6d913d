package gossip_test

import (
	"fmt"
	"math"
	"testing"

	"dynagg/internal/env"
	"dynagg/internal/failure"
	"dynagg/internal/gossip"
	"dynagg/internal/protocol/epoch"
	"dynagg/internal/protocol/extremes"
	"dynagg/internal/protocol/multi"
	"dynagg/internal/protocol/pushsumrevert"
	"dynagg/internal/protocol/sketchcount"
	"dynagg/internal/protocol/sketchreset"
	"dynagg/internal/sketch"
	"dynagg/internal/xrand"
)

// colCase pairs a protocol's classic (one agent per host) and
// columnar (one struct for the population) constructions, with the
// gossip models the protocol supports. columnar is nil for a protocol
// with no columnar form, whose case runs its classic engines only.
type colCase struct {
	models   []gossip.Model
	agents   func(n int) []gossip.Agent
	columnar func(n int) gossip.ColumnarAgent
}

func parityValues(n int) []float64 {
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = float64((i * 31) % 101)
	}
	return vs
}

// columnarCases enumerates the full protocol × model matrix: every
// protocol, in every configuration variant, under every gossip model
// its classic form supports. Every protocol but multi and sketchcount
// has a columnar form; their cases have no columnar builder and pin the
// classic executors only (a columnar static count is sketchreset with
// NoDecay). Keys name the subtests.
func columnarCases(t *testing.T) map[string]colCase {
	t.Helper()
	values := parityValues
	both := []gossip.Model{gossip.Push, gossip.PushPull}
	pushOnly := []gossip.Model{gossip.Push}
	srCfg := sketchreset.Config{
		Params:      sketch.Params{Bins: 8, Levels: 12},
		Identifiers: 1,
	}
	scParams := sketch.Params{Bins: 8, Levels: 12}
	exCfg := extremes.Config{Mode: extremes.Max, Cutoff: 10, TableSize: 4}
	revertCfg := func(variant string) pushsumrevert.Config {
		switch variant {
		case "fulltransfer":
			return pushsumrevert.Config{Lambda: 0.02, FullTransfer: true, Parcels: 4, Window: 3}
		case "adaptive":
			return pushsumrevert.Config{Lambda: 0.02, Adaptive: true}
		default:
			return pushsumrevert.Config{Lambda: 0.02}
		}
	}
	multiValues := func(n int) map[string][]float64 {
		vs := values(n)
		qs := make([]float64, n)
		for i := range qs {
			qs[i] = float64((i*7)%13) + 1
		}
		return map[string][]float64{"load": vs, "queue": qs}
	}
	cases := map[string]colCase{
		// Push-Sum is Push-Sum-Revert at λ = 0.
		"pushsum": {
			models: both,
			agents: func(n int) []gossip.Agent {
				agents := make([]gossip.Agent, n)
				for i, v := range values(n) {
					agents[i] = pushsumrevert.New(gossip.NodeID(i), v, pushsumrevert.Config{})
				}
				return agents
			},
			columnar: func(n int) gossip.ColumnarAgent {
				return pushsumrevert.NewColumnar(values(n), pushsumrevert.Config{})
			},
		},
		"sketchreset": {
			models: both,
			agents: func(n int) []gossip.Agent {
				agents := make([]gossip.Agent, n)
				for i := range agents {
					agents[i] = sketchreset.New(gossip.NodeID(i), srCfg)
				}
				return agents
			},
			columnar: func(n int) gossip.ColumnarAgent {
				return sketchreset.NewColumnar(n, srCfg)
			},
		},
		"sketchcount": {
			models: both,
			agents: func(n int) []gossip.Agent {
				agents := make([]gossip.Agent, n)
				for i := range agents {
					agents[i] = sketchcount.NewCount(gossip.NodeID(i), scParams)
				}
				return agents
			},
		},
		"extremes": {
			models: both,
			agents: func(n int) []gossip.Agent {
				agents := make([]gossip.Agent, n)
				for i, v := range values(n) {
					agents[i] = extremes.New(gossip.NodeID(i), v, exCfg)
				}
				return agents
			},
			columnar: func(n int) gossip.ColumnarAgent {
				return extremes.NewColumnar(values(n), exCfg)
			},
		},
		"epoch": {
			models: pushOnly, // the classic Node implements no exchange
			agents: func(n int) []gossip.Agent {
				agents := make([]gossip.Agent, n)
				for i, v := range values(n) {
					agents[i] = epoch.New(gossip.NodeID(i), v, epoch.Config{Length: 6})
				}
				return agents
			},
			columnar: func(n int) gossip.ColumnarAgent {
				return epoch.NewColumnar(values(n), epoch.Config{Length: 6})
			},
		},
	}
	for _, variant := range []string{"basic", "adaptive", "fulltransfer", "pushpull"} {
		cfg := revertCfg(variant)
		models := pushOnly
		if variant == "pushpull" {
			models = []gossip.Model{gossip.PushPull}
		}
		cases["pushsumrevert-"+variant] = colCase{
			models: models,
			agents: func(n int) []gossip.Agent {
				agents := make([]gossip.Agent, n)
				for i, v := range values(n) {
					agents[i] = pushsumrevert.New(gossip.NodeID(i), v, cfg)
				}
				return agents
			},
			columnar: func(n int) gossip.ColumnarAgent {
				return pushsumrevert.NewColumnar(values(n), cfg)
			},
		}
	}
	for _, variant := range []string{"push", "pushpull"} {
		cfg := pushsumrevert.Config{Lambda: 0.02}
		models := pushOnly
		if variant == "pushpull" {
			models = []gossip.Model{gossip.PushPull}
		}
		cases["moments-"+variant] = colCase{
			models: models,
			agents: func(n int) []gossip.Agent {
				agents := make([]gossip.Agent, n)
				for i, v := range values(n) {
					agents[i] = pushsumrevert.NewMoments(gossip.NodeID(i), v, cfg)
				}
				return agents
			},
			columnar: func(n int) gossip.ColumnarAgent {
				return pushsumrevert.NewColumnarMoments(values(n), cfg)
			},
		}
	}
	for _, variant := range []string{"push", "pushpull"} {
		avgCfg := pushsumrevert.Config{Lambda: 0.02}
		model := gossip.Push
		if variant == "pushpull" {
			model = gossip.PushPull
		}
		cases["multi-"+variant] = colCase{
			models: []gossip.Model{model},
			agents: func(n int) []gossip.Agent {
				agents := make([]gossip.Agent, n)
				vals := multiValues(n)
				for i := range agents {
					agents[i] = multi.New(gossip.NodeID(i), map[string]float64{
						"load":  vals["load"][i],
						"queue": vals["queue"][i],
					}, srCfg, avgCfg)
				}
				return agents
			},
		}
	}
	return cases
}

// blindUniform is env.Uniform whose Pick cannot see departures: it
// draws uniformly from every host but self, dead ones included, from
// the host's own PRNG on either backend.
type blindUniform struct{ *env.Uniform }

func (b blindUniform) Pick(id gossip.NodeID, _ int, rng *xrand.Rand) (gossip.NodeID, bool) {
	n := b.Size()
	if n < 2 {
		return 0, false
	}
	peer := gossip.NodeID(rng.Intn(n - 1))
	if peer >= id {
		peer++
	}
	return peer, true
}

// columnarEngine builds one engine over the shared failure-wave +
// churn schedule on either execution path.
func columnarEngine(t *testing.T, c colCase, model gossip.Model, n, rounds, workers int, columnar bool) *gossip.Engine {
	t.Helper()
	return blindableEngine(t, c, model, n, rounds, workers, columnar, false)
}

// blindableEngine is columnarEngine, with the uniform environment's
// Pick swapped for blindUniform's when blind is set.
func blindableEngine(t *testing.T, c colCase, model gossip.Model, n, rounds, workers int, columnar, blind bool) *gossip.Engine {
	t.Helper()
	environment := env.NewUniform(n)
	var picks gossip.Environment = environment
	if blind {
		picks = blindUniform{environment}
	}
	cfg := gossip.Config{
		Env:     picks,
		Model:   model,
		Seed:    9,
		Workers: workers,
		BeforeRound: []gossip.Hook{
			failure.RandomAt(rounds/2, 0.3, environment.Population, 17),
			failure.ChurnStorm(rounds/2+2, 1, 1, 0.05, environment.Population, 23),
		},
	}
	if columnar {
		cfg.Columnar = c.columnar(n)
	} else {
		cfg.Agents = c.agents(n)
	}
	engine, err := gossip.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return engine
}

// columnarFingerprint runs one engine to completion and captures the
// exact bit pattern of every host's estimate (dead hosts included,
// via EstimateOf) plus the traffic counters.
func columnarFingerprint(t *testing.T, engine *gossip.Engine, n, rounds int) fingerprint {
	t.Helper()
	engine.Run(rounds)
	fp := fingerprint{messages: engine.Messages(), contacts: engine.Contacts()}
	for id := 0; id < n; id++ {
		v, ok := engine.EstimateOf(gossip.NodeID(id))
		if !ok {
			v = math.Inf(-1)
		}
		fp.estimates = append(fp.estimates, math.Float64bits(v))
	}
	return fp
}

// TestColumnarMatchesClassic pins the tentpole determinism contract
// over the full protocol × model matrix: for each converted protocol
// and each gossip model it supports, the columnar engine — sequential
// and sharded at several worker counts — produces byte-identical
// estimates, message counts, and contact counts to the classic
// sequential engine over the same seed and failure schedule. A mid-run
// failure wave plus continuous churn exercises dead-host gating, lost
// messages, and revival on both paths. The population is deliberately
// not a multiple of the worker counts. A protocol with no columnar
// form compares its classic parallel engine only.
func TestColumnarMatchesClassic(t *testing.T) { testColumnarParity(t, false) }

// TestColumnarMatchesClassicUnderBlindPicks runs the same matrix with
// peers drawn blind to departures, so every round addresses messages
// and push/pull initiations to dead hosts. Churn revives hosts, so a
// kernel that folds into a dead host, or an exchange with one, shows
// up in a later estimate.
func TestColumnarMatchesClassicUnderBlindPicks(t *testing.T) { testColumnarParity(t, true) }

func testColumnarParity(t *testing.T, blind bool) {
	const (
		n      = 331
		rounds = 14
	)
	for name, c := range columnarCases(t) {
		for _, model := range c.models {
			t.Run(fmt.Sprintf("%s/%s", name, model), func(t *testing.T) {
				engine := func(workers int, columnar bool) *gossip.Engine {
					return blindableEngine(t, c, model, n, rounds, workers, columnar, blind)
				}
				want := columnarFingerprint(t, engine(0, false), n, rounds)
				// The classic parallel executor is pinned elsewhere, but
				// one sample here keeps all three executors in one table.
				fps := map[string]fingerprint{
					"classic/workers=4": columnarFingerprint(t, engine(4, false), n, rounds),
				}
				if c.columnar != nil {
					for _, workers := range []int{0, 1, 4} {
						key := fmt.Sprintf("columnar/workers=%d", workers)
						fps[key] = columnarFingerprint(t, engine(workers, true), n, rounds)
					}
				}
				for key, got := range fps {
					if got.messages != want.messages {
						t.Errorf("%s: Messages = %d, classic sequential %d", key, got.messages, want.messages)
					}
					if got.contacts != want.contacts {
						t.Errorf("%s: Contacts = %d, classic sequential %d", key, got.contacts, want.contacts)
					}
					for i := range want.estimates {
						if got.estimates[i] != want.estimates[i] {
							t.Errorf("%s: host %d estimate bits %#x, classic sequential %#x",
								key, i, got.estimates[i], want.estimates[i])
							break
						}
					}
				}
			})
		}
	}
}

// TestPushPullSkipsDepartedPeers: a push/pull initiation to a departed
// peer the environment still offers is a contact that carries nothing,
// on either backend. The dead hosts keep their endowment, and only
// exchanges with live peers count messages.
func TestPushPullSkipsDepartedPeers(t *testing.T) {
	const n, rounds = 6, 3
	dead := []gossip.NodeID{1, 4}
	values := parityValues(n)
	cfg := pushsumrevert.Config{Lambda: 0.02}
	var counts [][2]int64
	for _, columnar := range []bool{false, true} {
		uniform := env.NewUniform(n)
		for _, id := range dead {
			uniform.Fail(id)
		}
		ecfg := gossip.Config{Env: blindUniform{uniform}, Model: gossip.PushPull, Seed: 3}
		var mass func(gossip.NodeID) pushsumrevert.Mass
		if columnar {
			col := pushsumrevert.NewColumnar(values, cfg)
			ecfg.Columnar, mass = col, col.Mass
		} else {
			for i, v := range values {
				ecfg.Agents = append(ecfg.Agents, pushsumrevert.New(gossip.NodeID(i), v, cfg))
			}
			mass = func(id gossip.NodeID) pushsumrevert.Mass { return ecfg.Agents[id].(*pushsumrevert.Node).Mass() }
		}
		e, err := gossip.NewEngine(ecfg)
		if err != nil {
			t.Fatal(err)
		}
		e.Run(rounds)
		for _, id := range dead {
			if got, want := mass(id), (pushsumrevert.Mass{W: 1, V: values[id]}); got != want {
				t.Errorf("columnar=%v: dead host %d holds %+v, want its endowment %+v", columnar, id, got, want)
			}
		}
		if got, want := e.Contacts(), int64((n-len(dead))*rounds); got != want {
			t.Errorf("columnar=%v: Contacts = %d, want %d", columnar, got, want)
		}
		if e.Messages() >= 2*e.Contacts() {
			t.Errorf("columnar=%v: Messages = %d for %d contacts: initiations to dead peers exchanged state",
				columnar, e.Messages(), e.Contacts())
		}
		counts = append(counts, [2]int64{e.Contacts(), e.Messages()})
	}
	if counts[0] != counts[1] {
		t.Errorf("(contacts, messages): classic %v, columnar %v", counts[0], counts[1])
	}
}

// TestColumnarConfigValidation pins the columnar half of the Config
// contract: agent-exclusive, population-sized, and push/pull gated on
// ColExchanger.
func TestColumnarConfigValidation(t *testing.T) {
	values := []float64{1, 2, 3, 4}
	col := pushsumrevert.NewColumnar(values, pushsumrevert.Config{})
	if _, err := gossip.NewEngine(gossip.Config{
		Env: env.NewUniform(4), Columnar: col, Model: gossip.PushPull,
	}); err != nil {
		t.Errorf("push-pull columnar engine rejected for a ColExchanger protocol: %v", err)
	}
	if _, err := gossip.NewEngine(gossip.Config{
		Env:      env.NewUniform(4),
		Columnar: epoch.NewColumnar(values, epoch.Config{Length: 4}),
		Model:    gossip.PushPull,
	}); err == nil {
		t.Error("push-pull columnar engine accepted for a protocol without ExchangePairs")
	}
	if _, err := gossip.NewEngine(gossip.Config{
		Env:      env.NewUniform(4),
		Columnar: col,
		Agents:   []gossip.Agent{pushsumrevert.New(0, 1, pushsumrevert.Config{})},
	}); err == nil {
		t.Error("Columnar+Agents engine accepted")
	}
	if _, err := gossip.NewEngine(gossip.Config{
		Env: env.NewUniform(5), Columnar: col,
	}); err == nil {
		t.Error("population/environment size mismatch accepted")
	}
	if _, err := gossip.NewEngine(gossip.Config{
		Env: env.NewUniform(4), Columnar: col,
	}); err != nil {
		t.Errorf("valid columnar config rejected: %v", err)
	}
}
