package experiments

import (
	"fmt"
	"math"

	"dynagg/internal/env"
	"dynagg/internal/failure"
	"dynagg/internal/gossip"
	"dynagg/internal/metrics"
	"dynagg/internal/protocol/sketchreset"
	"dynagg/internal/sketch"
	"dynagg/internal/stats"
	"dynagg/internal/xrand"
)

func newRand(seed uint64) *xrand.Rand { return xrand.New(seed) }

// Fig9 reproduces Figure 9: dynamic sketch counting under massive
// failure. Every host holds value 1 (so the network sum equals the
// live host count); after FailAt rounds, half the hosts are removed.
// Two lines: naive sketch counting (no decay; the estimate never
// recovers) and propagation limiting with the f(k)=7+k/4 cutoff (the
// estimate reverts within ~10 rounds). The cutoff is read-side only,
// so one simulation feeds both lines, each through its own Readout.
func Fig9(sc Scale) Result {
	res := Result{
		Name:   fmt.Sprintf("dynamic counting under failure (n=%d, fail %d at round %d)", sc.N, sc.N/2, sc.FailAt),
		XLabel: "round",
		YLabel: "stddev from true sum",
	}
	environment := env.NewUniform(sc.N)
	truth := metrics.NewTruth(onesValues(sc.N), environment.Population)
	cfg := sketchreset.Config{Params: sketch.DefaultParams, Identifiers: 1}
	static := cfg
	static.NoDecay = true
	on := stats.Series{Label: "propagation limiting on"}
	off := stats.Series{Label: "propagation limiting off"}
	engineCfg := gossip.Config{
		Env: environment, Model: gossip.PushPull, Seed: sc.Seed,
		Workers:     sc.Workers,
		BeforeRound: []gossip.Hook{failure.RandomAt(sc.FailAt, 0.5, environment.Population, sc.Seed+13)},
		AfterRound: []gossip.Hook{
			metrics.DeviationHook(&on, truth.Sum, sketchreset.NewReadout(cfg).EstimateOf),
			metrics.DeviationHook(&off, truth.Sum, sketchreset.NewReadout(static).EstimateOf),
		},
	}
	if sc.Columnar {
		engineCfg.Columnar = sketchreset.NewColumnar(sc.N, cfg)
	} else {
		agents := make([]gossip.Agent, sc.N)
		for i := range agents {
			agents[i] = sketchreset.New(gossip.NodeID(i), cfg)
		}
		engineCfg.Agents = agents
	}
	engine, err := gossip.NewEngine(engineCfg)
	if err != nil {
		panic(err)
	}
	engine.Run(sc.Rounds)
	res.Series = append(res.Series, on, off)
	res.Notef("limiting on: post-failure tail stddev %.0f (reverts)", on.TailMean(5))
	res.Notef("limiting off: post-failure tail stddev %.0f (stuck at pre-failure count)", off.TailMean(5))
	return res
}

func onesValues(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

// Fig6Options parametrizes the bit-counter distribution experiment.
type Fig6Options struct {
	// Sizes are the host populations to profile (the paper: 1e3, 1e4,
	// 1e5).
	Sizes []int
	// Rounds lets the network converge before sampling.
	Rounds int
	// MaxCounter truncates the CDF's x axis (the paper plots 0-12).
	MaxCounter int
	Seed       uint64
}

// DefaultFig6 matches the paper at laptop scale.
func DefaultFig6() Fig6Options {
	return Fig6Options{Sizes: []int{1000, 10000}, Rounds: 30, MaxCounter: 12, Seed: 1}
}

// FullFig6 matches the paper exactly.
func FullFig6() Fig6Options {
	return Fig6Options{Sizes: []int{1000, 10000, 100000}, Rounds: 30, MaxCounter: 12, Seed: 1}
}

// Fig6Result holds one network size's counter CDFs, one per bit index.
type Fig6Result struct {
	Size int
	// PerBit[k] is the CDF of finite counter values for bit k over all
	// hosts and bins.
	PerBit []*stats.CDF
}

// Fig6 reproduces Figure 6: the distribution of Count-Sketch-Reset
// counter values per bit index in converged networks of several sizes.
// The paper's claims, checkable from the output: (1) the distribution
// for low-order bits is nearly independent of network size, and (2)
// counter values for bit k are bounded w.h.p. by a linear function of
// k — the cutoff f(k) = 7 + k/4.
func Fig6(opts Fig6Options) ([]Fig6Result, Result) {
	table := Result{
		Name:   "bit counter distribution (p99 per bit vs cutoff f(k)=7+k/4)",
		XLabel: "bit",
		YLabel: "counter value",
	}
	var out []Fig6Result
	for _, n := range opts.Sizes {
		fr := fig6Once(n, opts)
		out = append(out, fr)

		series := stats.Series{Label: fmt.Sprintf("p99 n=%d", n)}
		for k, cdf := range fr.PerBit {
			if cdf.Total() == 0 {
				continue
			}
			p99 := percentileOfCDF(cdf, 0.99)
			series.Append(float64(k), float64(p99))
		}
		table.Series = append(table.Series, series)
	}
	cutoff := stats.Series{Label: "f(k)=7+k/4"}
	maxBit := 0
	for _, fr := range out {
		if len(fr.PerBit) > maxBit {
			maxBit = len(fr.PerBit)
		}
	}
	for k := 0; k < maxBit; k++ {
		cutoff.Append(float64(k), sketchreset.DefaultCutoff(k))
	}
	table.Series = append(table.Series, cutoff)
	table.Notef("a p99 at or below f(k) means the cutoff keeps sourced bits alive w.h.p.")
	return out, table
}

func fig6Once(n int, opts Fig6Options) Fig6Result {
	environment := env.NewUniform(n)
	agents := make([]gossip.Agent, n)
	params := sketch.DefaultParams
	for i := range agents {
		agents[i] = sketchreset.New(gossip.NodeID(i), sketchreset.Config{
			Params:      params,
			Identifiers: 1,
			NoDecay:     true, // measure raw propagation ages
		})
	}
	engine, err := gossip.NewEngine(gossip.Config{
		Env: environment, Agents: agents, Model: gossip.PushPull, Seed: opts.Seed,
	})
	if err != nil {
		panic(err)
	}
	engine.Run(opts.Rounds)

	// Sample counters: for each bit index, the finite ages across all
	// hosts and bins.
	perBit := make([]*stats.CDF, params.Levels)
	for k := range perBit {
		perBit[k] = stats.NewCDF()
	}
	maxInteresting := 0
	for i := 0; i < n; i++ {
		node := agents[i].(*sketchreset.Node)
		for bin := 0; bin < params.Bins; bin++ {
			for k := 0; k < params.Levels; k++ {
				c := node.CounterAt(bin, k)
				if c == sketchreset.Never {
					continue
				}
				perBit[k].Observe(int(c))
				if k > maxInteresting {
					maxInteresting = k
				}
			}
		}
	}
	return Fig6Result{Size: n, PerBit: perBit[:maxInteresting+1]}
}

// percentileOfCDF returns the smallest value v with P[X<=v] >= q.
func percentileOfCDF(c *stats.CDF, q float64) int {
	pts := c.Points()
	for _, p := range pts {
		if p.P >= q {
			return p.Value
		}
	}
	if len(pts) == 0 {
		return 0
	}
	return pts[len(pts)-1].Value
}

// FitCutoff derives an empirical linear cutoff a + k/b from Figure 6
// data by least-squares over the per-bit p99 values, reproducing the
// paper's "derived experimentally" f(k). Returns the intercept and
// inverse slope (the paper: a≈7, b≈4).
func FitCutoff(frs []Fig6Result, q float64) (intercept, invSlope float64) {
	var xs, ys []float64
	for _, fr := range frs {
		for k, cdf := range fr.PerBit {
			if cdf.Total() < 100 {
				continue // too few observations for a stable percentile
			}
			xs = append(xs, float64(k))
			ys = append(ys, float64(percentileOfCDF(cdf, q)))
		}
	}
	if len(xs) < 2 {
		return 0, math.Inf(1)
	}
	mx, my := stats.Mean(xs), stats.Mean(ys)
	var num, den float64
	for i := range xs {
		num += (xs[i] - mx) * (ys[i] - my)
		den += (xs[i] - mx) * (xs[i] - mx)
	}
	slope := num / den
	if slope == 0 {
		return my, math.Inf(1)
	}
	return my - slope*mx, 1 / slope
}
