// Command fleettelemetry runs the full Figure 7 deployment in the
// paper's motivating setting: a fleet of 400 vehicles drives through a
// 2 km × 2 km area under random-waypoint mobility, gossiping only with
// vehicles in radio range. Every vehicle maintains, simultaneously:
//
//   - how many vehicles are in the area (Count-Sketch-Reset),
//   - the fleet's average speed and average engine temperature
//     (two named Push-Sum-Revert aggregates riding on the same
//     sketch — the §IV-B amortization),
//   - the total cargo on the road (average × size, Figure 7 step 3),
//   - the hottest engine in the fleet (dynamic max, the age-out
//     extension).
//
// Halfway through, a quarter of the fleet — the fastest vehicles, a
// value-correlated departure — exits the area without telling anyone.
// Every running estimate re-converges to the remaining fleet.
//
// Run it:
//
//	go run ./examples/fleettelemetry
package main

import (
	"fmt"
	"sort"

	"dynagg/internal/env"
	"dynagg/internal/gossip"
	"dynagg/internal/protocol/extremes"
	"dynagg/internal/protocol/multi"
	"dynagg/internal/protocol/pushsumrevert"
	"dynagg/internal/protocol/sketchreset"
	"dynagg/internal/sketch"
	"dynagg/internal/xrand"
)

func main() {
	const (
		fleet    = 400
		rounds   = 120
		departAt = 60
		probe    = gossip.NodeID(7)
	)

	// Vehicle telemetry: speed (km/h), engine temperature (°C), cargo (t).
	rng := xrand.New(2024)
	speed := make([]float64, fleet)
	engTemp := make([]float64, fleet)
	cargo := make([]float64, fleet)
	for i := 0; i < fleet; i++ {
		speed[i] = 40 + 60*rng.Float64()
		// Fast engines run hot, so the fleet's hottest engine leaves
		// with the fastest vehicles — the max tracker must age it out.
		engTemp[i] = 60 + speed[i]/2 + 5*rng.Float64()
		cargo[i] = 5 * rng.Float64()
	}

	newMobility := func(seed uint64) *env.Mobile {
		m, err := env.NewMobile(env.MobileConfig{
			N: fleet, Width: 2000, Height: 2000, Range: 150,
			MinSpeed: 10, MaxSpeed: 40, Seed: seed,
		})
		if err != nil {
			panic(err)
		}
		return m
	}

	// Two networks over the same vehicles: the multi-aggregate one (one
	// sketch, two averages) and the max tracker. (Separate networks must
	// not share one environment's PRNG-coupled state, so the max tracker
	// gets its own identically-seeded copy.)
	sizeCfg := sketchreset.Config{
		Params: sketch.DefaultParams,
		// Proximity gossip floods slower than the uniform gossip the
		// default 7+k/4 cutoff is calibrated for (§IV-A); without the
		// allowance, sourced bits age past the cutoff and the size
		// estimate flickers.
		Cutoff: func(k int) float64 { return 35 + float64(k)/2 },
	}
	avgCfg := pushsumrevert.Config{Lambda: 0.05}
	maxCfg := extremes.Config{Mode: extremes.Max, Cutoff: 40} // proximity gossip floods slower than uniform
	fleetAgents := make([]gossip.Agent, fleet)
	maxAgents := make([]gossip.Agent, fleet)
	for i := 0; i < fleet; i++ {
		id := gossip.NodeID(i)
		fleetAgents[i] = multi.New(id, map[string]float64{"speed": speed[i], "cargo": cargo[i]}, sizeCfg, avgCfg)
		maxAgents[i] = extremes.New(id, engTemp[i], maxCfg)
	}
	mobility := newMobility(9)
	telemetry, err := gossip.NewEngine(gossip.Config{
		Env: mobility, Agents: fleetAgents, Model: gossip.PushPull, Seed: 1,
	})
	if err != nil {
		panic(err)
	}
	maxMobility := newMobility(9)
	hottest, err := gossip.NewEngine(gossip.Config{
		Env: maxMobility, Agents: maxAgents, Model: gossip.PushPull, Seed: 1,
	})
	if err != nil {
		panic(err)
	}

	fmt.Printf("fleet of %d vehicles, 2×2 km, radio range 150 m (mean degree ≈ %.1f)\n\n",
		fleet, mobility.MeanDegree())
	fmt.Printf("%6s  %8s  %10s  %11s  %11s  %10s\n",
		"round", "fleet", "est. size", "avg speed", "total cargo", "hottest")

	trueStats := func(m *env.Mobile) (size int, avgSpeed, totalCargo, maxTemp float64) {
		for _, id := range m.Population.AliveIDs() {
			size++
			avgSpeed += speed[id]
			totalCargo += cargo[id]
			if engTemp[id] > maxTemp {
				maxTemp = engTemp[id]
			}
		}
		if size > 0 {
			avgSpeed /= float64(size)
		}
		return size, avgSpeed, totalCargo, maxTemp
	}

	for r := 0; r < rounds; r++ {
		if r == departAt {
			departFastest(mobility, maxMobility, speed, fleet/4)
			fmt.Printf("--- the %d fastest vehicles left the area silently ---\n", fleet/4)
		}
		telemetry.Step()
		hottest.Step()
		if (r+1)%15 != 0 && r != departAt {
			continue
		}
		size, avgSpeed, totalCargo, maxTemp := trueStats(mobility)
		// The engine's estimate of a multi host is its size estimate; the
		// named aggregates are read off the host, and only while it is
		// still in the area.
		estSize, _ := telemetry.EstimateOf(probe)
		var estSpeed, estCargo float64
		if mobility.Alive(probe, telemetry.Round()) {
			node := telemetry.Agent(probe).(*multi.Node)
			estSpeed, _ = node.Average("speed")
			estCargo, _ = node.Sum("cargo")
		}
		estMax, _ := hottest.EstimateOf(probe)
		fmt.Printf("%6d  %8d  %10.0f  %5.1f/%4.1f  %6.0f/%4.0f  %5.1f/%4.1f\n",
			r+1, size, estSize, estSpeed, avgSpeed, estCargo, totalCargo, estMax, maxTemp)
	}

	fmt.Println("\n(columns are estimate/truth; all estimates maintained at every vehicle, no infrastructure)")
}

// departFastest silently removes the k fastest vehicles from both
// environment copies.
func departFastest(a, b *env.Mobile, speed []float64, k int) {
	order := make([]int, len(speed))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool { return speed[order[x]] > speed[order[y]] })
	for _, id := range order[:k] {
		a.Population.Fail(gossip.NodeID(id))
		b.Population.Fail(gossip.NodeID(id))
	}
}
