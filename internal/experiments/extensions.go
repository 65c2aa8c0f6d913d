package experiments

import (
	"fmt"
	"math"

	"dynagg/internal/env"
	"dynagg/internal/failure"
	"dynagg/internal/gossip"
	"dynagg/internal/protocol/extremes"
	"dynagg/internal/protocol/pushsumrevert"
	"dynagg/internal/protocol/sketchreset"
	"dynagg/internal/sketch"
	"dynagg/internal/stats"
)

// meanAbsErrorHook appends, each round, the live-population mean of
// |estimate − truth()|. Estimates are read through Engine.EstimateOf,
// which gates on liveness and works identically on the classic and
// columnar execution paths, so drivers built on it honor
// Scale.Columnar without path-specific metric code.
func meanAbsErrorHook(series *stats.Series, n int, truth func() float64) gossip.Hook {
	return func(round int, e *gossip.Engine) {
		t := truth()
		var sum float64
		cnt := 0
		for id := 0; id < n; id++ {
			if est, ok := e.EstimateOf(gossip.NodeID(id)); ok {
				sum += math.Abs(est - t)
				cnt++
			}
		}
		if cnt > 0 {
			series.Append(float64(round), sum/float64(cnt))
		}
	}
}

// AblationMoments (A6) extends Figure 10's correlated-failure scenario
// to the second moment: dynamic standard-deviation tracking via
// Push-Sum-Revert carrying a second value (pushsumrevert.NewMoments).
// Failing the top-valued half changes the true stddev from ≈28.9
// (U[0,100)) to ≈14.4 (U[0,50)); the static protocol keeps reporting
// the old spread, the dynamic one re-converges.
func AblationMoments(sc Scale) Result {
	res := Result{
		Name:   fmt.Sprintf("dynamic stddev under correlated failures (n=%d, fail %d at round %d)", sc.N, sc.N/2, sc.FailAt),
		XLabel: "round",
		YLabel: "mean |stddev estimate - true stddev|",
	}
	for _, lambda := range []float64{0, 0.01, 0.1} {
		values := uniformValues(sc.N, sc.Seed+7)
		environment := env.NewUniform(sc.N)
		cfg := pushsumrevert.Config{Lambda: lambda}
		series := stats.Series{Label: fmt.Sprintf("λ=%.4f", lambda)}
		trueStdDev := func() float64 {
			var sum, sq float64
			n := 0
			for _, id := range environment.Population.AliveIDs() {
				v := values[id]
				sum += v
				sq += v * v
				n++
			}
			if n == 0 {
				return 0
			}
			mean := sum / float64(n)
			return math.Sqrt(sq/float64(n) - mean*mean)
		}
		engineCfg := gossip.Config{
			Env: environment, Model: gossip.PushPull, Seed: sc.Seed,
			Workers:     sc.Workers,
			BeforeRound: []gossip.Hook{failure.TopValuedAt(sc.FailAt, 0.5, environment.Population, values)},
			// The protocol's Estimate IS the standard deviation, and
			// EstimateOf gates on liveness, so the hook works unchanged
			// on both execution paths.
			AfterRound: []gossip.Hook{meanAbsErrorHook(&series, sc.N, trueStdDev)},
		}
		if sc.Columnar {
			engineCfg.Columnar = pushsumrevert.NewColumnarMoments(values, cfg)
		} else {
			agents := make([]gossip.Agent, sc.N)
			for i := range agents {
				agents[i] = pushsumrevert.NewMoments(gossip.NodeID(i), values[i], cfg)
			}
			engineCfg.Agents = agents
		}
		engine, err := gossip.NewEngine(engineCfg)
		if err != nil {
			panic(err)
		}
		engine.Run(sc.Rounds)
		res.Series = append(res.Series, series)
	}
	for _, s := range res.Series {
		res.Notef("%s: final mean error %.3f", s.Label, s.Y[s.Len()-1])
	}
	return res
}

// AblationExtremes (A7) applies the age-out technique to MAX: after the
// top-valued hosts depart, the dynamic extremum falls back to the
// survivors' maximum within cutoff + flood time, while a static gossip
// max (cutoff = ∞, approximated by a huge cutoff) never recovers.
func AblationExtremes(sc Scale) Result {
	res := Result{
		Name:   fmt.Sprintf("dynamic max under correlated failures (n=%d, fail %d at round %d)", sc.N, sc.N/2, sc.FailAt),
		XLabel: "round",
		YLabel: "mean |max estimate - true max|",
	}
	type mode struct {
		label  string
		cutoff int
	}
	modes := []mode{
		{"age-out (cutoff 20)", 20},
		{"static (no age-out)", 1 << 20},
	}
	for _, m := range modes {
		values := uniformValues(sc.N, sc.Seed+7)
		environment := env.NewUniform(sc.N)
		cfg := extremes.Config{Mode: extremes.Max, Cutoff: m.cutoff}
		series := stats.Series{Label: m.label}
		trueMax := func() float64 {
			best := math.Inf(-1)
			for _, id := range environment.Population.AliveIDs() {
				if values[id] > best {
					best = values[id]
				}
			}
			return best
		}
		engineCfg := gossip.Config{
			Env: environment, Model: gossip.PushPull, Seed: sc.Seed,
			Workers:     sc.Workers,
			BeforeRound: []gossip.Hook{failure.TopValuedAt(sc.FailAt, 0.5, environment.Population, values)},
			AfterRound:  []gossip.Hook{meanAbsErrorHook(&series, sc.N, trueMax)},
		}
		if sc.Columnar {
			engineCfg.Columnar = extremes.NewColumnar(values, cfg)
		} else {
			agents := make([]gossip.Agent, sc.N)
			for i := range agents {
				agents[i] = extremes.New(gossip.NodeID(i), values[i], cfg)
			}
			engineCfg.Agents = agents
		}
		engine, err := gossip.NewEngine(engineCfg)
		if err != nil {
			panic(err)
		}
		engine.Run(sc.Rounds)
		res.Series = append(res.Series, series)
	}
	for _, s := range res.Series {
		res.Notef("%s: final mean error %.3f", s.Label, s.Y[s.Len()-1])
	}
	return res
}

// AblationGridCutoff (A8) probes §IV-A's observation that the bit-age
// cutoff must track the environment's propagation rate: on a spatial
// grid, the uniform-gossip cutoff 7+k/4 is too tight (bits flicker and
// the estimate collapses), while over-generous cutoffs slow the decay
// after failures. The experiment sweeps the cutoff intercept on a
// side×side torus, measuring count error before and after failing half
// the grid. The cutoff is read-side only, so one simulation is read
// once per intercept.
func AblationGridCutoff(side int, seed uint64) Result {
	n := side * side
	res := Result{
		Name:   fmt.Sprintf("grid count vs cutoff intercept (%d×%d torus, fail half at round 40)", side, side),
		XLabel: "cutoff intercept c in f(k) = c + k/2",
		YLabel: "mean |count estimate - truth| / truth",
	}
	var preSeries, postSeries stats.Series
	preSeries.Label = "steady-state error (pre-failure)"
	postSeries.Label = "error 30 rounds after failure"
	cfg := sketchreset.Config{Params: sketch.DefaultParams, Identifiers: 1}
	intercepts := []float64{7, 15, 25, 40, 60}
	reads := make([]sketchreset.Readout, len(intercepts))
	for i, c := range intercepts {
		read := cfg
		read.Cutoff = func(k int) float64 { return c + float64(k)/2 }
		reads[i] = sketchreset.NewReadout(read)
	}
	grid := env.NewGrid(side, side, side)
	agents := make([]gossip.Agent, n)
	for i := range agents {
		agents[i] = sketchreset.New(gossip.NodeID(i), cfg)
	}
	engine, err := gossip.NewEngine(gossip.Config{
		Env: grid, Agents: agents, Model: gossip.PushPull, Seed: seed,
	})
	if err != nil {
		panic(err)
	}
	meanRelErr := func(read sketchreset.Readout, truth float64) float64 {
		var sum float64
		cnt := 0
		for id := 0; id < n; id++ {
			if est, ok := read.EstimateOf(engine, gossip.NodeID(id)); ok {
				sum += math.Abs(est - truth)
				cnt++
			}
		}
		if cnt == 0 {
			return 1
		}
		return sum / float64(cnt) / truth
	}
	engine.Run(40)
	for i, read := range reads {
		preSeries.Append(intercepts[i], meanRelErr(read, float64(n)))
	}
	for i := 0; i < n; i += 2 {
		grid.Population.Fail(gossip.NodeID(i))
	}
	engine.Run(30)
	for i, read := range reads {
		postSeries.Append(intercepts[i], meanRelErr(read, float64(n/2)))
	}
	res.Series = append(res.Series, preSeries, postSeries)
	res.Notef("too-small intercepts flicker (§IV-A: cutoff must match propagation rate); too-large intercepts heal slowly")
	return res
}
