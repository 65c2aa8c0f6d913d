// Command quickstart is a 60-second tour of the dynamic in-network
// aggregation library.
//
// It builds a fully connected network of 1,000 hosts, each holding a
// uniform random value in [0, 100), and runs Push-Sum-Revert to
// maintain a network-wide average at every host. Twenty rounds in, the
// highest-valued half of the hosts fail silently — the worst case for
// static protocols, because the lost mass is correlated with the lost
// values — and the dynamic protocol pulls every survivor's estimate
// back to the new true average.
//
// Run it:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"sort"

	"dynagg/internal/env"
	"dynagg/internal/gossip"
	"dynagg/internal/metrics"
	"dynagg/internal/protocol/pushsumrevert"
	"dynagg/internal/stats"
	"dynagg/internal/xrand"
)

func main() {
	const (
		hosts  = 1000
		rounds = 50
		failAt = 20
		lambda = 0.1
	)

	// One data value per host: the paper's standard U[0,100) workload.
	rng := xrand.New(7)
	values := make([]float64, hosts)
	for i := range values {
		values[i] = rng.Float64() * 100
	}

	// The environment decides who can gossip with whom; the population
	// inside it tracks silent failures.
	e := env.NewUniform(hosts)

	// Ground truth over the *live* hosts only, recomputed on demand.
	truth := metrics.NewTruth(values, e.Population)

	// One Push-Sum-Revert agent per host, driven by the round engine.
	agents := make([]gossip.Agent, hosts)
	for i := range agents {
		agents[i] = pushsumrevert.New(gossip.NodeID(i), values[i],
			pushsumrevert.Config{Lambda: lambda, PushPull: true})
	}
	net, err := gossip.NewEngine(gossip.Config{
		Env: e, Agents: agents, Model: gossip.PushPull, Seed: 1,
	})
	if err != nil {
		panic(err)
	}

	fmt.Printf("dynamic average over %d hosts, λ=%g\n", hosts, lambda)
	fmt.Printf("%6s  %12s  %12s  %10s\n", "round", "true avg", "est (host 0)", "stddev")

	report := func() {
		est, _ := net.EstimateOf(0)
		dev := stats.DeviationFrom(net.Estimates(), truth.Average())
		fmt.Printf("%6d  %12.4f  %12.4f  %10.4f\n", net.Round(), truth.Average(), est, dev)
	}

	for r := 0; r < rounds; r++ {
		if r == failAt {
			// Fail the highest-valued half of the population, silently:
			// no sign-off, no notification, exactly as when wireless
			// peers move out of range. The true average drops to ~25.
			failTopHalf(e.Population, values)
			fmt.Printf("--- round %d: highest-valued half failed silently (survivors: %d) ---\n",
				r, e.Population.AliveCount())
		}
		net.Step()
		if r%5 == 4 || r == failAt {
			report()
		}
	}

	fmt.Printf("\nfinal: true average %.4f, host-0 estimate %v\n",
		truth.Average(), firstEstimate(net))
	fmt.Printf("total protocol messages: %d (%.1f per host per round)\n",
		net.Messages(), float64(net.Messages())/float64(hosts*rounds))
}

func failTopHalf(pop *env.Population, values []float64) {
	order := make([]int, len(values))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return values[order[a]] > values[order[b]] })
	for _, id := range order[:len(order)/2] {
		pop.Fail(gossip.NodeID(id))
	}
}

func firstEstimate(net *gossip.Engine) string {
	if v, ok := net.EstimateOf(0); ok {
		return fmt.Sprintf("%.4f", v)
	}
	return "(host 0 failed)"
}
