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

// AblationMobility (A10) runs dynamic averaging in the paper's
// motivating setting: devices under random-waypoint mobility that can
// only gossip within radio range. Mobility supplies the long-distance
// mixing that uniform gossip assumes (§IV cites host mobility as one
// of the mechanisms achieving logarithmic spatial convergence). At
// round FailAt the highest-valued half of the devices leaves the area
// silently; the reversion pulls survivors back to their own average.
// The mean radio degree is reported alongside, mirroring Figure 11's
// group-size series.
func AblationMobility(sc Scale) Result {
	// Field sized for a mean degree of ≈8 at the configured population:
	// degree ≈ n·πR²/area.
	n := sc.N
	if n > 5000 {
		n = 5000 // mobility index rebuilds dominate beyond this; density is what matters
	}
	cfg := env.MobileConfig{
		N: n, Width: 2000, Height: 2000, Range: 64, MinSpeed: 10, MaxSpeed: 40,
		Seed: sc.Seed + 5,
	}
	res := Result{
		Name: fmt.Sprintf("dynamic averaging under random-waypoint mobility (n=%d, range %.0f m, fail %d at round %d)",
			n, cfg.Range, n/2, sc.FailAt),
		XLabel: "round",
		YLabel: "stddev from true average",
	}

	var degSeries stats.Series
	degSeries.Label = "mean radio degree"
	for i, lambda := range []float64{0, 0.01, 0.1} {
		mob, err := env.NewMobile(cfg)
		if err != nil {
			panic(err)
		}
		values := uniformValues(n, sc.Seed+7)
		truth := metrics.NewTruth(values, mob.Population)
		agents := make([]gossip.Agent, n)
		for j := range agents {
			agents[j] = pushsumrevert.New(gossip.NodeID(j), values[j],
				pushsumrevert.Config{Lambda: lambda})
		}
		series := stats.Series{Label: fmt.Sprintf("λ=%.4f", lambda)}
		hooks := []gossip.Hook{metrics.DeviationHook(&series, truth.Average, (*gossip.Engine).EstimateOf)}
		if i == 0 {
			hooks = append(hooks, func(round int, e *gossip.Engine) {
				degSeries.Append(float64(round), mob.MeanDegree())
			})
		}
		engine, err := gossip.NewEngine(gossip.Config{
			Env: mob, Agents: agents, Model: gossip.PushPull, Seed: sc.Seed,
			Workers:     sc.Workers,
			BeforeRound: []gossip.Hook{failure.TopValuedAt(sc.FailAt, 0.5, mob.Population, values)},
			AfterRound:  hooks,
		})
		if err != nil {
			panic(err)
		}
		engine.Run(sc.Rounds)
		res.Series = append(res.Series, series)
	}
	res.Series = append(res.Series, degSeries)
	for _, s := range res.Series[:3] {
		res.Notef("%s: post-failure tail stddev %.3f", s.Label, s.TailMean(5))
	}
	res.Notef("mean radio degree ≈ %.1f", stats.Mean(degSeries.Y))
	return res
}
