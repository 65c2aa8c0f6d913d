// Command sizeestimation estimates how many devices are present —
// live, with no coordinator and no departure notifications — in two
// settings:
//
//  1. A round-driven run on a synthetic contact trace (12 commuting
//     devices), where the interesting quantity is each device's own
//     connectivity-group size: "how many of us are in range right now?"
//  2. A goroutine-per-node run of the same Count-Sketch-Reset protocol
//     on 500 concurrently ticking hosts, demonstrating that the
//     protocol does not depend on lock-step rounds: hosts tick
//     independently, messages are asynchronous, and the estimate still
//     converges to the population size.
//
// Run it:
//
//	go run ./examples/sizeestimation
package main

import (
	"context"
	"fmt"

	"dynagg/internal/env"
	"dynagg/internal/gossip"
	"dynagg/internal/gossip/live"
	"dynagg/internal/protocol/sketchreset"
	"dynagg/internal/sketch"
	"dynagg/internal/stats"
	"dynagg/internal/trace"
)

func main() {
	traceRun()
	fmt.Println()
	liveRun()
}

// traceRun drives Count-Sketch-Reset over a 12-device commuting trace
// and reports estimated versus true group size at one device.
func traceRun() {
	tr := trace.Generate(trace.Dataset2())
	tenv := env.NewTraceEnv(tr, 0, 0)

	fmt.Printf("trace run: %d devices over %.0f hours\n", tr.N, tr.Duration.Hours())

	agents := make([]gossip.Agent, tr.N)
	for i := range agents {
		// 100 identifiers per device sharpen the FM estimate on tiny
		// networks (the paper's Figure 11 adjustment); Scale divides
		// the estimate back down to devices.
		agents[i] = sketchreset.New(gossip.NodeID(i), sketchreset.Config{
			Params:      sketch.DefaultParams,
			Identifiers: 100,
			Scale:       100,
		})
	}
	engine, err := gossip.NewEngine(gossip.Config{
		Env: tenv, Agents: agents, Model: gossip.PushPull, Seed: 5,
	})
	if err != nil {
		panic(err)
	}

	perHour := int(3600 / tenv.Interval().Seconds())
	fmt.Printf("%5s  %15s  %12s\n", "hour", "device-3 est.", "true group")
	rounds := tenv.Rounds()
	for r := 0; r < rounds; r++ {
		engine.Step()
		if (r+1)%(perHour*12) != 0 {
			continue
		}
		asg := tenv.Groups()
		truth := asg.SizeOf(asg.GroupOf(3))
		if est, ok := engine.EstimateOf(3); ok {
			fmt.Printf("%5d  %15.1f  %12d\n", (r+1)/perHour, est, truth)
		} else {
			fmt.Printf("%5d  %15s  %12d\n", (r+1)/perHour, "(none)", truth)
		}
	}
}

// liveRun runs the same protocol with one goroutine per host — no
// rounds, no barrier — and checks the estimates it converges to.
func liveRun() {
	const (
		hosts = 500
		ticks = 60
	)
	fmt.Printf("live run: %d concurrent hosts × %d asynchronous ticks\n", hosts, ticks)

	e := env.NewUniform(hosts)
	agents := make([]gossip.Agent, hosts)
	for i := range agents {
		agents[i] = sketchreset.New(gossip.NodeID(i), sketchreset.Config{
			Params:      sketch.DefaultParams,
			Identifiers: 10,
			Scale:       10,
		})
	}
	engine, err := live.New(live.Config{
		Population: live.NewAgentPopulation(agents),
		Env:        e,
		Model:      gossip.PushPull,
		Seed:       11,
		Ticks:      ticks,
	})
	if err != nil {
		panic(err)
	}
	if err := engine.Run(context.Background()); err != nil {
		panic(err)
	}

	ests := engine.Estimates()
	fmt.Printf("population truth: %d\n", hosts)
	fmt.Printf("estimates: mean %.1f, median %.1f, stddev %.1f (expected FM error ≈ %.1f%%)\n",
		stats.Mean(ests), stats.Quantile(ests, 0.5), stats.StdDev(ests),
		100*sketch.DefaultParams.ExpectedRelativeError())
	fmt.Printf("messages: %d exchanged, %d dropped by saturated inboxes\n",
		engine.Sent(), engine.Dropped())
}
