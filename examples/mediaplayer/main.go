// Command mediaplayer plays out the paper's motivating scenario (§I): a
// proximity-aware social-networking application on wireless media
// players. Each device carries its owner's average song rating and
// wants a running estimate of the average rating among *nearby*
// devices — say, to pick ambient music matching the current crowd —
// without any infrastructure, as people walk in and out of range.
//
// The devices gossip every 30 simulated seconds over a synthetic
// Haggle-like contact trace (41 devices at a multi-day conference, the
// CRAWDAD cambridge/haggle substitution the trace package documents).
// Because the network splinters into transient groups, each device's
// estimate is judged against its own connectivity group's true average
// rather than a global one.
//
// Run it:
//
//	go run ./examples/mediaplayer
package main

import (
	"fmt"
	"math"

	"dynagg/internal/env"
	"dynagg/internal/gossip"
	"dynagg/internal/groups"
	"dynagg/internal/protocol/pushsumrevert"
	"dynagg/internal/trace"
	"dynagg/internal/xrand"
)

func main() {
	const (
		lambda = 0.01
		seed   = 42
	)

	// A 41-device conference trace: large gatherings during sessions,
	// small clusters in between.
	tr := trace.Generate(trace.Dataset3())
	fmt.Printf("contact trace: %d devices over %.0f hours, %d link events\n",
		tr.N, tr.Duration.Hours(), len(tr.Events))

	// Song ratings: each person's library averages somewhere in [0,5].
	rng := xrand.New(seed)
	ratings := make([]float64, tr.N)
	for i := range ratings {
		ratings[i] = 1 + 4*rng.Float64()
	}

	tenv := env.NewTraceEnv(tr, 0, 0) // defaults: 30 s gossip, 10 min group window
	agents := make([]gossip.Agent, tr.N)
	for i := range agents {
		agents[i] = pushsumrevert.New(gossip.NodeID(i), ratings[i],
			pushsumrevert.Config{Lambda: lambda})
	}
	engine, err := gossip.NewEngine(gossip.Config{
		Env: tenv, Agents: agents, Model: gossip.PushPull, Seed: seed,
	})
	if err != nil {
		panic(err)
	}

	rounds := tenv.Rounds()
	perHour := int(3600 / tenv.Interval().Seconds())
	fmt.Printf("gossiping every %v for %d rounds (%d per simulated hour)\n\n",
		tenv.Interval(), rounds, perHour)
	fmt.Printf("%5s  %7s  %12s  %14s\n", "hour", "groups", "avg grp size", "stddev vs grp")

	for r := 0; r < rounds; r++ {
		engine.Step()
		if (r+1)%(perHour*6) != 0 {
			continue
		}
		asg := tenv.Groups()
		dev := groupDeviation(engine, asg, ratings)
		fmt.Printf("%5d  %7d  %12.2f  %14.3f\n",
			(r+1)/perHour, asg.Groups(), asg.MeanGroupSizePerHost(), dev)
	}

	fmt.Println("\nEach device now holds a live estimate of its group's taste:")
	asg := tenv.Groups()
	for _, id := range []int{0, 10, 20, 40} {
		est, ok := engine.EstimateOf(gossip.NodeID(id))
		truth := groupAverage(asg, id, ratings)
		if !ok {
			fmt.Printf("  device %2d: (no estimate)\n", id)
			continue
		}
		fmt.Printf("  device %2d: estimates %.2f, its %d-device group truly averages %.2f\n",
			id, est, asg.SizeOf(asg.GroupOf(id)), truth)
	}
}

// groupDeviation is the RMS deviation of every device's estimate from
// its own connectivity group's true average rating.
func groupDeviation(e *gossip.Engine, asg groups.Assignment, ratings []float64) float64 {
	var sum float64
	n := 0
	for id := 0; id < asg.N(); id++ {
		est, ok := e.EstimateOf(gossip.NodeID(id))
		if !ok {
			continue
		}
		d := est - groupAverage(asg, id, ratings)
		sum += d * d
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Sqrt(sum / float64(n))
}

func groupAverage(asg groups.Assignment, id int, ratings []float64) float64 {
	members := asg.Members(asg.GroupOf(id))
	var sum float64
	for _, m := range members {
		sum += ratings[m]
	}
	return sum / float64(len(members))
}
