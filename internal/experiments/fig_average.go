package experiments

import (
	"fmt"

	"dynagg/internal/env"
	"dynagg/internal/failure"
	"dynagg/internal/gossip"
	"dynagg/internal/metrics"
	"dynagg/internal/protocol/pushsumrevert"
	"dynagg/internal/stats"
)

// FailureModel selects which half of the population the failure wave
// removes.
type FailureModel int

const (
	// Uncorrelated removes a uniform random half (Figure 8): the true
	// average is unchanged in expectation, and so is the average mass.
	Uncorrelated FailureModel = iota
	// Correlated removes the highest-valued half (Figure 10): the true
	// average drops from 50 to 25 while the mass still reflects the
	// old population — the failure mode reversion exists to repair.
	Correlated
)

// String returns the model's name, "correlated" or "uncorrelated", as
// series labels print it.
func (m FailureModel) String() string {
	if m == Correlated {
		return "correlated"
	}
	return "uncorrelated"
}

// AveragingOptions parametrizes the Push-Sum-Revert failure
// experiments.
type AveragingOptions struct {
	Scale
	Model FailureModel
	// Lambdas is the set of reversion constants to sweep.
	Lambdas []float64
	// FullTransfer runs the Figure 10b variant: push gossip, mass
	// split into Parcels parcels, estimates over a Window of rounds.
	FullTransfer bool
	Parcels      int
	Window       int
}

// Fig8 reproduces Figure 8: dynamic averaging under uncorrelated
// failures.
func Fig8(sc Scale) Result {
	return Averaging(AveragingOptions{Scale: sc, Model: Uncorrelated, Lambdas: PaperLambdas})
}

// Fig10a reproduces Figure 10a: dynamic averaging under correlated
// failures, basic algorithm.
func Fig10a(sc Scale) Result {
	return Averaging(AveragingOptions{Scale: sc, Model: Correlated, Lambdas: PaperLambdas})
}

// Fig10b reproduces Figure 10b: correlated failures with the
// Full-Transfer optimization (4 parcels, window 3).
func Fig10b(sc Scale) Result {
	return Averaging(AveragingOptions{
		Scale: sc, Model: Correlated, Lambdas: PaperLambdas,
		FullTransfer: true, Parcels: 4, Window: 3,
	})
}

// Averaging runs one Push-Sum-Revert failure experiment per λ and
// returns the per-round deviation-from-truth series.
func Averaging(opts AveragingOptions) Result {
	name := fmt.Sprintf("dynamic averaging, %s failures (n=%d, fail %d at round %d)",
		opts.Model, opts.N, opts.N/2, opts.FailAt)
	if opts.FullTransfer {
		name += fmt.Sprintf(", full-transfer N=%d T=%d", opts.Parcels, opts.Window)
	}
	res := Result{Name: name, XLabel: "round", YLabel: "stddev from true average"}

	for _, lambda := range opts.Lambdas {
		series := runAveragingOnce(opts, lambda)
		res.Series = append(res.Series, series)
	}
	// Headline numbers, printed as the result's notes: converged
	// plateau and time to reach it.
	for i, s := range res.Series {
		tail := s.TailMean(5)
		if x, ok := s.FirstBelow(tail * 1.25); ok && x > float64(opts.FailAt) {
			res.Notef("λ=%v: post-failure plateau stddev %.3f, reached by round %.0f",
				opts.Lambdas[i], tail, x)
		} else {
			res.Notef("λ=%v: post-failure plateau stddev %.3f", opts.Lambdas[i], tail)
		}
	}
	return res
}

func runAveragingOnce(opts AveragingOptions, lambda float64) stats.Series {
	values := uniformValues(opts.N, opts.Seed+7)
	environment := env.NewUniform(opts.N)
	truth := metrics.NewTruth(values, environment.Population)

	model := gossip.PushPull
	cfg := pushsumrevert.Config{Lambda: lambda, PushPull: true}
	if opts.FullTransfer {
		model = gossip.Push
		cfg = pushsumrevert.Config{
			Lambda: lambda, FullTransfer: true,
			Parcels: opts.Parcels, Window: opts.Window,
		}
	}

	series := stats.Series{Label: fmt.Sprintf("λ=%.4f", lambda)}
	var failHook gossip.Hook
	switch opts.Model {
	case Correlated:
		failHook = failure.TopValuedAt(opts.FailAt, 0.5, environment.Population, values)
	default:
		failHook = failure.RandomAt(opts.FailAt, 0.5, environment.Population, opts.Seed+13)
	}
	engineCfg := gossip.Config{
		Env: environment, Model: model, Seed: opts.Seed,
		Workers:     opts.Workers,
		BeforeRound: []gossip.Hook{failHook},
		AfterRound:  []gossip.Hook{metrics.DeviationHook(&series, truth.Average, (*gossip.Engine).EstimateOf)},
	}
	if opts.Columnar {
		engineCfg.Columnar = pushsumrevert.NewColumnar(values, cfg)
	} else {
		agents := make([]gossip.Agent, opts.N)
		for i := range agents {
			agents[i] = pushsumrevert.New(gossip.NodeID(i), values[i], cfg)
		}
		engineCfg.Agents = agents
	}
	engine, err := gossip.NewEngine(engineCfg)
	if err != nil {
		panic(err)
	}
	engine.Run(opts.Rounds)
	return series
}

// uniformValues draws the paper's standard workload: values uniform in
// [0, 100).
func uniformValues(n int, seed uint64) []float64 {
	rng := newRand(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.Float64() * 100
	}
	return out
}
