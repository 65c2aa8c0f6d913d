package experiments

import (
	"fmt"
	"math"

	"dynagg/internal/env"
	"dynagg/internal/gossip"
	"dynagg/internal/metrics"
	"dynagg/internal/protocol/pushsumrevert"
	"dynagg/internal/protocol/sketchreset"
	"dynagg/internal/sketch"
	"dynagg/internal/stats"
	"dynagg/internal/trace"
)

// TraceDataset selects one of the three synthetic Haggle-like traces
// (the CRAWDAD substitution documented in the trace package).
func TraceDataset(i int) trace.GenParams {
	switch i {
	case 1:
		return trace.Dataset1()
	case 2:
		return trace.Dataset2()
	case 3:
		return trace.Dataset3()
	default:
		panic(fmt.Sprintf("experiments: no trace dataset %d (have 1-3)", i))
	}
}

// Fig11Avg reproduces the left column of Figure 11: dynamic averaging
// over a contact trace, error measured against each host's own
// 10-minute connectivity group, sampled hourly. One series per λ plus
// the average group size.
func Fig11Avg(dataset int, seed uint64) Result {
	params := TraceDataset(dataset)
	tr := trace.Generate(params)
	res := Result{
		Name: fmt.Sprintf("dynamic average on %s (%d devices, %.0f h)",
			params.Name, tr.N, tr.Duration.Hours()),
		XLabel: "hour",
		YLabel: "stddev from group average",
	}
	res.Notef("trace is synthetic (CRAWDAD substitution, see DESIGN.md)")

	var sizeSeries *stats.Series
	for i, lambda := range TraceLambdas {
		tenv := env.NewTraceEnv(tr, 0, 0)
		values := uniformValues(tr.N, seed+101)

		cfg := pushsumrevert.Config{Lambda: lambda, PushPull: true}
		agents := make([]gossip.Agent, tr.N)
		for j := range agents {
			agents[j] = pushsumrevert.New(gossip.NodeID(j), values[j], cfg)
		}
		series := stats.Series{Label: fmt.Sprintf("λ=%.4f", lambda)}
		var size stats.Series
		size.Label = "avg group size"
		perHour := int(math.Round(float64(3600) / tenv.Interval().Seconds()))
		sizePtr := &size
		if i != 0 {
			sizePtr = nil // record the size series only once
		}
		engine, err := gossip.NewEngine(gossip.Config{
			Env: tenv, Agents: agents, Model: gossip.PushPull, Seed: seed,
			AfterRound: []gossip.Hook{
				metrics.GroupDeviationHook(&series, sizePtr, tenv, values, metrics.GroupAverage, perHour, (*gossip.Engine).EstimateOf),
			},
		})
		if err != nil {
			panic(err)
		}
		engine.Run(tenv.Rounds())
		res.Series = append(res.Series, series)
		if i == 0 {
			sizeSeries = &size
		}
	}
	if sizeSeries != nil {
		res.Series = append(res.Series, *sizeSeries)
	}
	for i := range TraceLambdas {
		res.Notef("λ=%v: mean hourly stddev %.3f", TraceLambdas[i], stats.Mean(res.Series[i].Y))
	}
	return res
}

// Fig11Sum reproduces the right column of Figure 11: dynamic group
// size estimation over a contact trace with Count-Sketch-Reset. Each
// device registers 100 identifiers to sharpen the estimate on these
// tiny networks (the paper's adjustment). Three settings: reversion
// off (static sketch), on (cutoff 7+k/4) and slow (doubled cutoff).
// The settings differ only in how bits are read, so one simulation
// feeds all three, each through its own Readout.
func Fig11Sum(dataset int, seed uint64) Result {
	params := TraceDataset(dataset)
	tr := trace.Generate(params)
	res := Result{
		Name: fmt.Sprintf("dynamic size estimate on %s (%d devices, %.0f h)",
			params.Name, tr.N, tr.Duration.Hours()),
		XLabel: "hour",
		YLabel: "stddev from group size",
	}
	res.Notef("trace is synthetic (CRAWDAD substitution, see DESIGN.md)")
	res.Notef("each device registers 100 identifiers; estimates scaled back by 100")

	cfg := sketchreset.Config{Params: sketch.DefaultParams, Identifiers: 100, Scale: 100}
	type mode struct {
		label   string
		noDecay bool
		cutoff  func(k int) float64
	}
	modes := []mode{
		{label: "reversion off", noDecay: true},
		{label: "reversion on", cutoff: sketchreset.DefaultCutoff},
		{label: "reversion slow", cutoff: func(k int) float64 { return 14 + float64(k)/2 }},
	}
	tenv := env.NewTraceEnv(tr, 0, 0)
	values := onesValues(tr.N)
	perHour := int(math.Round(float64(3600) / tenv.Interval().Seconds()))
	size := stats.Series{Label: "avg group size"}
	sizePtr := &size // recorded by the first hook only
	series := make([]stats.Series, len(modes))
	hooks := make([]gossip.Hook, len(modes))
	for i, m := range modes {
		read := cfg
		read.Cutoff, read.NoDecay = m.cutoff, m.noDecay
		series[i].Label = m.label
		hooks[i] = metrics.GroupDeviationHook(&series[i], sizePtr, tenv, values, metrics.GroupSize, perHour,
			sketchreset.NewReadout(read).EstimateOf)
		sizePtr = nil
	}
	agents := make([]gossip.Agent, tr.N)
	for j := range agents {
		agents[j] = sketchreset.New(gossip.NodeID(j), cfg)
	}
	engine, err := gossip.NewEngine(gossip.Config{
		Env: tenv, Agents: agents, Model: gossip.PushPull, Seed: seed, AfterRound: hooks,
	})
	if err != nil {
		panic(err)
	}
	engine.Run(tenv.Rounds())
	res.Series = append(series, size)
	for i, m := range modes {
		res.Notef("%s: mean hourly stddev %.3f", m.label, stats.Mean(res.Series[i].Y))
	}
	return res
}
