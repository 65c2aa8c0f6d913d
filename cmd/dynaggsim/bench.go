package main

import (
	"flag"
	"fmt"
	"io"
	"time"

	"dynagg/internal/env"
	"dynagg/internal/gossip"
	"dynagg/internal/protocol/extremes"
	"dynagg/internal/protocol/pushsumrevert"
	"dynagg/internal/protocol/sketchreset"
	"dynagg/internal/sketch"
	"dynagg/internal/stats"
	"dynagg/internal/sysmem"
)

// benchOpts parametrizes the raw engine benchmark mode.
type benchOpts struct {
	protocol string
	model    string // push | pushpull
	n        int
	rounds   int
	workers  int
	columnar bool
	seed     uint64
}

func benchFlags(fs *flag.FlagSet) func(io.Writer) error {
	var o benchOpts
	fs.StringVar(&o.protocol, "protocol", "pushsum", "protocol: pushsum, revert, sketchreset, extremes, moments (pushsum is revert at λ = 0; a static count gossips exactly what sketchreset does, its cutoff being read-side only)")
	fs.StringVar(&o.model, "model", "push", "gossip model: push or pushpull")
	countVar(fs, &o.n, "n", 1000000, "host `count`")
	countVar(fs, &o.rounds, "rounds", 10, "timed round `count`, after two warm-up rounds")
	workersVar(fs, &o.workers, "engine shards: 0 one shard run inline, -1 one per CPU, k>0 exactly k")
	backendVar(fs, &o.columnar)
	fs.Uint64Var(&o.seed, "seed", 1, "PRNG seed")
	return func(out io.Writer) error { return runEngineBench(out, o) }
}

// benchSketchParams keeps the million-host sketch benchmark inside
// laptop memory: 8 bins × 16 levels is 128 counters per host (2 ×
// 128 MB of state at N=1M with the shadow block) instead of the
// paper's 64×24 (2 × 1.5 GB).
var benchSketchParams = sketch.Params{Bins: 8, Levels: 16}

// benchBuild assembles the protocol under test on the requested
// execution path and gossip model.
func benchBuild(o benchOpts, model gossip.Model, values []float64) (gossip.Config, error) {
	cfg := gossip.Config{
		Env:     env.NewUniform(o.n),
		Model:   model,
		Seed:    o.seed,
		Workers: o.workers,
	}
	agents := func(mk func(i int) gossip.Agent) {
		as := make([]gossip.Agent, o.n)
		for i := range as {
			as[i] = mk(i)
		}
		cfg.Agents = as
	}
	switch o.protocol {
	case "pushsum", "revert":
		// Push-Sum is Push-Sum-Revert at λ = 0.
		rcfg := pushsumrevert.Config{Lambda: 0}
		if o.protocol == "revert" {
			rcfg.Lambda = 0.01
		}
		if o.columnar {
			cfg.Columnar = pushsumrevert.NewColumnar(values, rcfg)
		} else {
			agents(func(i int) gossip.Agent { return pushsumrevert.New(gossip.NodeID(i), values[i], rcfg) })
		}
	case "sketchreset":
		scfg := sketchreset.Config{Params: benchSketchParams, Identifiers: 1}
		if o.columnar {
			cfg.Columnar = sketchreset.NewColumnar(o.n, scfg)
		} else {
			agents(func(i int) gossip.Agent { return sketchreset.New(gossip.NodeID(i), scfg) })
		}
	case "extremes":
		ecfg := extremes.Config{Mode: extremes.Max}
		if o.columnar {
			cfg.Columnar = extremes.NewColumnar(values, ecfg)
		} else {
			agents(func(i int) gossip.Agent { return extremes.New(gossip.NodeID(i), values[i], ecfg) })
		}
	case "moments":
		mcfg := pushsumrevert.Config{Lambda: 0.01}
		if o.columnar {
			cfg.Columnar = pushsumrevert.NewColumnarMoments(values, mcfg)
		} else {
			agents(func(i int) gossip.Agent { return pushsumrevert.NewMoments(gossip.NodeID(i), values[i], mcfg) })
		}
	default:
		return cfg, fmt.Errorf("bench: unknown -protocol %q (pushsum, revert, sketchreset, extremes, moments)", o.protocol)
	}
	return cfg, nil
}

// runEngineBench is the `dynaggsim bench` mode: raw gossip rounds of
// one protocol at a configurable population — by default the
// ROADMAP's N=1,000,000 — on either execution path and either gossip
// model (-model=push|pushpull), reporting ns/round, messages/round,
// and peak RSS. This is the reproducible form of the profile that
// motivated the columnar engine; combine with
// -cpuprofile/-memprofile to regenerate it.
func runEngineBench(out io.Writer, o benchOpts) error {
	var model gossip.Model
	switch o.model {
	case "push":
		model = gossip.Push
	case "pushpull":
		model = gossip.PushPull
	default:
		return fmt.Errorf("bench: unknown -model %q (push, pushpull)", o.model)
	}
	values := make([]float64, o.n)
	for i := range values {
		values[i] = float64(i % 101)
	}
	cfg, err := benchBuild(o, model, values)
	if err != nil {
		return err
	}

	path := "aos"
	if o.columnar {
		path = "columnar"
	}
	fmt.Fprintf(out, "# engine bench: %s/%s/%s n=%d workers=%d rounds=%d seed=%d\n",
		o.protocol, model, path, o.n, o.workers, o.rounds, o.seed)

	engine, err := gossip.NewEngine(cfg)
	if err != nil {
		return err
	}
	// Warm-up: a columnar kernel reserves its emission column once, in
	// round 0 (fan-out × live hosts); the classic outboxes and the
	// cross-shard slots grow by append over the first rounds.
	engine.Run(2)

	start := time.Now()
	engine.Run(o.rounds)
	elapsed := time.Since(start)

	perRound := elapsed / time.Duration(o.rounds)
	fmt.Fprintf(out, "rounds          %d\n", o.rounds)
	fmt.Fprintf(out, "total           %v\n", elapsed.Round(time.Millisecond))
	fmt.Fprintf(out, "ns/round        %d\n", perRound.Nanoseconds())
	fmt.Fprintf(out, "msgs/round      %d\n", engine.Messages()/int64(engine.Round()))
	fmt.Fprintf(out, "peak_rss_bytes  %d\n", sysmem.PeakRSSBytes())
	if ests := engine.Estimates(); len(ests) > 0 {
		fmt.Fprintf(out, "estimate mean   %.4f (over %d live hosts)\n", stats.Mean(ests), len(ests))
	}
	return nil
}
