// Command roadhazard plays out the paper's vehicular scenario (§I): GPS
// units monitor car-mounted sensors for hazards such as slippery roads,
// and nearby units aggregate those reports in-network to decide whether
// to route around trouble — with no infrastructure and no reliable
// departure notifications.
//
// Vehicles sit on a road grid and can only talk to nearby vehicles;
// long "multi-hop" contacts are drawn with probability ∝ 1/d², the
// spatial-gossip trick (§IV) that keeps propagation times logarithmic.
// A patch of black ice is observed by 60 vehicles. Their reports are
// counted with Count-Sketch-Reset (dynamic summation by multiple
// insertions): every vehicle quickly learns how many reporters there
// are. Then the reporters drive away — silently, as vehicles do — and
// the count *decays back toward zero*, which a static sketch can never
// do.
//
// Run it:
//
//	go run ./examples/roadhazard
package main

import (
	"fmt"

	"dynagg/internal/env"
	"dynagg/internal/gossip"
	"dynagg/internal/protocol/sketchreset"
	"dynagg/internal/sketch"
)

func main() {
	const (
		side      = 30 // 30×30 road grid, 900 vehicles
		reporters = 60
		departAt  = 30
		rounds    = 80
	)

	grid := env.NewGrid(side, side, side) // multi-hop walks up to the grid diameter
	n := grid.Size()

	// A cluster of vehicles near the grid centre observes the hazard.
	hazard := make([]float64, n)
	ids := centreCluster(grid, reporters)
	for _, id := range ids {
		hazard[id] = 1
	}

	// Spatial gossip propagates slower than uniform gossip, so the
	// bit-age cutoff must allow for the longer multi-hop distances
	// (§IV-A: "this cutoff is determined based on the gossip
	// propagation rate of the network"). A generous linear bound keeps
	// still-sourced bits alive while letting orphaned bits age out.
	gridCutoff := func(k int) float64 { return 25 + float64(k)/2 }

	// Each vehicle inserts as many sketch identifiers as it has reports
	// (one or none): the sketch then counts reports, not vehicles.
	agents := make([]gossip.Agent, n)
	for i := range agents {
		agents[i] = sketchreset.New(gossip.NodeID(i), sketchreset.Config{
			Params: sketch.DefaultParams, Cutoff: gridCutoff, Identifiers: int(hazard[i]),
		})
	}
	net, err := gossip.NewEngine(gossip.Config{
		Env: grid, Agents: agents, Model: gossip.PushPull, Seed: 99,
	})
	if err != nil {
		panic(err)
	}

	// The probe vehicle sits in a far corner of the grid.
	probe := gossip.NodeID(0)

	fmt.Printf("road grid %d×%d (%d vehicles), %d hazard reports near the centre\n",
		side, side, n, reporters)
	fmt.Println("(FM sketches are biased high at small counts; the shape — hold, then decay — is the point)")
	fmt.Printf("probe vehicle at the far corner; reporters depart after round %d\n\n", departAt)
	fmt.Printf("%6s  %18s  %12s\n", "round", "probe's estimate", "true reports")

	live := reporters
	for r := 0; r < rounds; r++ {
		if r == departAt {
			for _, id := range ids {
				grid.Population.Fail(id)
			}
			live = 0
			fmt.Printf("--- all %d reporters departed silently ---\n", reporters)
		}
		net.Step()
		if r%5 == 4 || r == departAt {
			est, ok := net.EstimateOf(probe)
			if !ok {
				fmt.Printf("%6d  %18s  %12d\n", net.Round(), "(none)", live)
				continue
			}
			fmt.Printf("%6d  %18.1f  %12d\n", net.Round(), est, live)
		}
	}

	est, _ := net.EstimateOf(probe)
	fmt.Printf("\nfinal probe estimate %.1f (true %d): the hazard aged out of the network\n", est, live)
}

// centreCluster returns the ids of the k vehicles nearest the grid
// centre, walking outward ring by ring.
func centreCluster(g *env.Grid, k int) []gossip.NodeID {
	cx, cy := g.Width()/2, g.Height()/2
	var out []gossip.NodeID
	for radius := 0; len(out) < k && radius <= g.Width(); radius++ {
		for y := cy - radius; y <= cy+radius && len(out) < k; y++ {
			for x := cx - radius; x <= cx+radius && len(out) < k; x++ {
				if x < 0 || y < 0 || x >= g.Width() || y >= g.Height() {
					continue
				}
				dx, dy := x-cx, y-cy
				if dx*dx+dy*dy > radius*radius {
					continue
				}
				id := gossip.NodeID(y*g.Width() + x)
				if !contains(out, id) {
					out = append(out, id)
				}
			}
		}
	}
	return out
}

func contains(ids []gossip.NodeID, id gossip.NodeID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}
