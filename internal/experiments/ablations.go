package experiments

import (
	"fmt"
	"math"

	"dynagg/internal/env"
	"dynagg/internal/failure"
	"dynagg/internal/gossip"
	"dynagg/internal/metrics"
	"dynagg/internal/overlay"
	"dynagg/internal/protocol/epoch"
	"dynagg/internal/protocol/pushsumrevert"
	"dynagg/internal/sketch"
	"dynagg/internal/stats"
)

// AblationPushPull (A1) compares push against push/pull gossip for
// static Push-Sum (Push-Sum-Revert at λ = 0), checking Karp et al.'s
// claim (§III-A) that push/pull roughly halves initial convergence
// time.
func AblationPushPull(sc Scale) Result {
	res := Result{
		Name:   fmt.Sprintf("push vs push/pull convergence of static Push-Sum (n=%d)", sc.N),
		XLabel: "round",
		YLabel: "stddev from true average",
	}
	for _, model := range []gossip.Model{gossip.Push, gossip.PushPull} {
		values := uniformValues(sc.N, sc.Seed+7)
		environment := env.NewUniform(sc.N)
		truth := metrics.NewTruth(values, environment.Population)
		series := stats.Series{Label: model.String()}
		engineCfg := gossip.Config{
			Env: environment, Model: model, Seed: sc.Seed,
			Workers:    sc.Workers,
			AfterRound: []gossip.Hook{metrics.DeviationHook(&series, truth.Average)},
		}
		cfg := pushsumrevert.Config{Lambda: 0, PushPull: model == gossip.PushPull}
		if sc.Columnar {
			engineCfg.Columnar = pushsumrevert.NewColumnar(values, cfg)
		} else {
			agents := make([]gossip.Agent, sc.N)
			for i := range agents {
				agents[i] = pushsumrevert.New(gossip.NodeID(i), values[i], cfg)
			}
			engineCfg.Agents = agents
		}
		engine, err := gossip.NewEngine(engineCfg)
		if err != nil {
			panic(err)
		}
		engine.Run(sc.Rounds)
		res.Series = append(res.Series, series)
		if x, ok := series.FirstBelow(0.5); ok {
			res.Notef("%s: stddev < 0.5 by round %.0f", model, x)
		} else {
			res.Notef("%s: never reached stddev 0.5 in %d rounds", model, sc.Rounds)
		}
	}
	return res
}

// AblationAdaptive (A2) compares fixed-λ reversion against
// indegree-scaled (adaptive) reversion after a correlated failure,
// checking the §III-A claim that adaptive reversion roughly halves
// reconvergence time at equal λ.
func AblationAdaptive(sc Scale) Result {
	res := Result{
		Name:   fmt.Sprintf("fixed vs adaptive λ reversion, correlated failures (n=%d)", sc.N),
		XLabel: "round",
		YLabel: "stddev from true average",
	}
	const lambda = 0.1
	for _, adaptive := range []bool{false, true} {
		label := fmt.Sprintf("fixed λ=%.2f", lambda)
		if adaptive {
			label = fmt.Sprintf("adaptive λ=%.2f", lambda)
		}
		values := uniformValues(sc.N, sc.Seed+7)
		environment := env.NewUniform(sc.N)
		truth := metrics.NewTruth(values, environment.Population)
		cfg := pushsumrevert.Config{Lambda: lambda, Adaptive: adaptive}
		series := stats.Series{Label: label}
		engineCfg := gossip.Config{
			Env: environment, Model: gossip.Push, Seed: sc.Seed,
			Workers:     sc.Workers,
			BeforeRound: []gossip.Hook{failure.TopValuedAt(sc.FailAt, 0.5, environment.Population, values)},
			AfterRound:  []gossip.Hook{metrics.DeviationHook(&series, truth.Average)},
		}
		if sc.Columnar {
			engineCfg.Columnar = pushsumrevert.NewColumnar(values, cfg)
		} else {
			agents := make([]gossip.Agent, sc.N)
			for i := range agents {
				agents[i] = pushsumrevert.New(gossip.NodeID(i), values[i], cfg)
			}
			engineCfg.Agents = agents
		}
		engine, err := gossip.NewEngine(engineCfg)
		if err != nil {
			panic(err)
		}
		engine.Run(sc.Rounds)
		res.Series = append(res.Series, series)
		tail := series.TailMean(5)
		if x, ok := firstBelowAfter(series, tail*1.5, sc.FailAt); ok {
			res.Notef("%s: reconverged (within 1.5x of plateau %.3f) by round %.0f", label, tail, x)
		} else {
			res.Notef("%s: plateau %.3f, no reconvergence point found", label, tail)
		}
	}
	return res
}

func firstBelowAfter(s stats.Series, threshold float64, after int) (float64, bool) {
	for i := range s.X {
		if s.X[i] > float64(after) && s.Y[i] <= threshold {
			return s.X[i], true
		}
	}
	return 0, false
}

// AblationBins (A3) measures FM sketch relative error against the bin
// count, checking Flajolet-Martin's 0.78/√m stochastic-averaging bound
// (9.7% at the paper's 64 bins).
func AblationBins(trials int, population int, seed uint64) Result {
	res := Result{
		Name:   fmt.Sprintf("sketch error vs bins (population %d, %d trials)", population, trials),
		XLabel: "bins",
		YLabel: "relative error",
	}
	measured := stats.Series{Label: "measured RMS rel. error"}
	analytic := stats.Series{Label: "0.78/sqrt(m)"}
	rng := newRand(seed)
	for _, m := range []int{8, 16, 32, 64, 128} {
		p := sketch.Params{Bins: m, Levels: 24}
		var sq float64
		for t := 0; t < trials; t++ {
			s := sketch.New(p)
			for i := 0; i < population; i++ {
				s.Insert(rng.Uint64())
			}
			rel := (s.Estimate() - float64(population)) / float64(population)
			sq += rel * rel
		}
		measured.Append(float64(m), math.Sqrt(sq/float64(trials)))
		analytic.Append(float64(m), p.ExpectedRelativeError())
	}
	res.Series = append(res.Series, measured, analytic)
	return res
}

// AblationEpoch (A4) demonstrates §II-C's critique of epoch-based
// dynamic aggregation: epoch lengths below the network's convergence
// time never produce accurate estimates, while long epochs answer with
// stale values after a failure. Push-Sum-Revert (λ=0.1) is shown for
// comparison.
func AblationEpoch(sc Scale) Result {
	res := Result{
		Name:   fmt.Sprintf("epoch length sensitivity vs reversion (n=%d, correlated failure at %d)", sc.N, sc.FailAt),
		XLabel: "round",
		YLabel: "stddev from true average",
	}
	for _, length := range []int{5, 10, 20, 40} {
		values := uniformValues(sc.N, sc.Seed+7)
		environment := env.NewUniform(sc.N)
		truth := metrics.NewTruth(values, environment.Population)
		series := stats.Series{Label: fmt.Sprintf("epoch len %d", length)}
		engineCfg := gossip.Config{
			Env: environment, Model: gossip.Push, Seed: sc.Seed,
			Workers:     sc.Workers,
			BeforeRound: []gossip.Hook{failure.TopValuedAt(sc.FailAt, 0.5, environment.Population, values)},
			AfterRound:  []gossip.Hook{metrics.DeviationHook(&series, truth.Average)},
		}
		if sc.Columnar {
			engineCfg.Columnar = epoch.NewColumnar(values, epoch.Config{Length: length})
		} else {
			agents := make([]gossip.Agent, sc.N)
			for i := range agents {
				agents[i] = epoch.New(gossip.NodeID(i), values[i], epoch.Config{Length: length})
			}
			engineCfg.Agents = agents
		}
		engine, err := gossip.NewEngine(engineCfg)
		if err != nil {
			panic(err)
		}
		engine.Run(sc.Rounds)
		res.Series = append(res.Series, series)
		res.Notef("epoch len %d: tail stddev %.3f", length, series.TailMean(5))
	}
	// Reference: Push-Sum-Revert.
	ref := runAveragingOnce(AveragingOptions{Scale: sc, Model: Correlated}, 0.1)
	ref.Label = "push-sum-revert λ=0.1"
	res.Series = append(res.Series, ref)
	res.Notef("push-sum-revert λ=0.1: tail stddev %.3f", ref.TailMean(5))
	return res
}

// AblationOverlay (A5) contrasts TAG-style spanning-tree aggregation
// with gossip under churn on a grid topology: the tree is exact when
// nothing fails between build and collection, but loses entire
// subtrees as failures mount, while Push-Sum-Revert degrades smoothly.
func AblationOverlay(side int, seed uint64) Result {
	res := Result{
		Name:   fmt.Sprintf("overlay (TAG tree) vs gossip under churn, %dx%d grid", side, side),
		XLabel: "failed fraction (%)",
		YLabel: "relative aggregate error",
	}
	treeSeries := stats.Series{Label: "TAG spanning tree"}
	gossipSeries := stats.Series{Label: "push-sum-revert λ=0.1"}

	for _, failPct := range []int{0, 5, 10, 20, 40} {
		frac := float64(failPct) / 100

		// --- Overlay: build on the intact grid, fail, then collect.
		grid := env.NewGrid(side, side, 0)
		values := uniformValues(grid.Size(), seed+7)
		tree, err := overlay.Build(gridTopology{grid}, 0)
		if err != nil {
			panic(err)
		}
		failRandomDirect(grid.Population, frac, seed+13)
		trueAvg := liveAverage(values, grid.Population)
		result := tree.Collect(values, func(id gossip.NodeID) bool { return grid.Population.Alive(id) })
		treeErr := 0.0
		if trueAvg != 0 {
			treeErr = math.Abs(result.Average()-trueAvg) / math.Abs(trueAvg)
		}
		treeSeries.Append(float64(failPct), treeErr)

		// --- Gossip on the same topology and failure set.
		grid2 := env.NewGrid(side, side, 0)
		agents := make([]gossip.Agent, grid2.Size())
		for i := range agents {
			agents[i] = pushsumrevert.New(gossip.NodeID(i), values[i],
				pushsumrevert.Config{Lambda: 0.1, PushPull: true})
		}
		truth := metrics.NewTruth(values, grid2.Population)
		engine, err := gossip.NewEngine(gossip.Config{
			Env: grid2, Agents: agents, Model: gossip.PushPull, Seed: seed,
			BeforeRound: []gossip.Hook{func(r int, e *gossip.Engine) {
				if r == 10 {
					failRandomDirect(grid2.Population, frac, seed+13)
				}
			}},
		})
		if err != nil {
			panic(err)
		}
		engine.Run(40)
		ests := engine.Estimates()
		gerr := 0.0
		if ta := truth.Average(); ta != 0 {
			gerr = stats.DeviationFrom(ests, ta) / math.Abs(ta)
		}
		gossipSeries.Append(float64(failPct), gerr)
	}
	res.Series = append(res.Series, treeSeries, gossipSeries)
	res.Notef("tree error comes from lost subtrees; gossip error from reversion bias")
	return res
}

// gridTopology adapts env.Grid to overlay.Topology.
type gridTopology struct{ g *env.Grid }

func (t gridTopology) Size() int                   { return t.g.Size() }
func (t gridTopology) Alive(id gossip.NodeID) bool { return t.g.Population.Alive(id) }
func (t gridTopology) Neighbors(id gossip.NodeID) []gossip.NodeID {
	return t.g.NeighborsOf(id)
}

func failRandomDirect(pop *env.Population, frac float64, seed uint64) {
	rng := newRand(seed)
	n := pop.Size()
	k := int(frac * float64(n))
	if k <= 0 {
		return
	}
	for _, i := range rng.Sample(make([]int, k), n) {
		pop.Fail(gossip.NodeID(i))
	}
}

func liveAverage(values []float64, pop *env.Population) float64 {
	var sum float64
	ids := pop.AliveIDs()
	if len(ids) == 0 {
		return 0
	}
	for _, id := range ids {
		sum += values[id]
	}
	return sum / float64(len(ids))
}
