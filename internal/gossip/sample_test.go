package gossip_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"dynagg/internal/env"
	"dynagg/internal/gossip"
	"dynagg/internal/trace"
	"dynagg/internal/xrand"
)

// TestColRoundLiveMatchesAlive pins the contract every kernel loop
// rests on, over every environment built on a population: after
// Sample(lo, hi) the bitmap holds the per-host Alive of every host in
// [lo, hi) — so the environment's AliveRange and Alive agree — and no
// entry outside it changed; Live of any range is exactly the ascending
// filter of the sampled bitmap; Sample returns the live count; and a
// steady-state Sample or Live allocates nothing. Liveness is set by
// Fail and Revive and sampled at several rounds, over full, empty,
// single-host and random ranges.
func TestColRoundLiveMatchesAlive(t *testing.T) {
	const n = 300
	rng := xrand.New(5)
	uniform, grid := env.NewUniform(n), env.NewGrid(20, 15, 0)
	mobile, err := env.NewMobile(env.MobileConfig{N: n, Width: 200, Height: 150, Range: 20, MinSpeed: 1, MaxSpeed: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	traced := env.NewTraceEnv(&trace.Trace{Name: "silent", N: n, Duration: time.Hour}, 0, 0)
	envs := map[string]struct {
		env gossip.Environment
		pop *env.Population
	}{
		"uniform": {uniform, uniform.Population},
		"grid":    {grid, grid.Population},
		"mobile":  {mobile, mobile.Population},
		"trace":   {traced, traced.Population},
	}
	patterns := map[string]func(id int) bool{
		"all-dead":    func(int) bool { return false },
		"all-alive":   func(int) bool { return true },
		"alternating": func(id int) bool { return id%2 == 1 },
		"random-half": func(int) bool { return rng.Bool() },
	}
	for ename, e := range envs {
		for pname, pattern := range patterns {
			name := ename + "/" + pname
			for id := 0; id < n; id++ {
				if pattern(id) {
					e.pop.Revive(gossip.NodeID(id))
				} else {
					e.pop.Fail(gossip.NodeID(id))
				}
			}
			alive := make([]bool, n)
			rc := gossip.NewColRound(gossip.Push, e.env, nil, alive, n)
			for _, round := range []int{0, 1, 7} {
				e.env.Advance(round)
				rc.Round = round
				// Sample narrower ranges after wider ones: Live must follow
				// the latest sample.
				ranges := [][2]int{{0, n}, {37, 261}, {42, 252}, {n / 2, n / 2}, {0, 1}, {n - 1, n}}
				for k := 0; k < 4; k++ {
					lo := rng.Intn(n + 1)
					ranges = append(ranges, [2]int{lo, lo + rng.Intn(n-lo+1)})
				}
				for _, r := range ranges {
					checkSample(t, fmt.Sprintf("%s round %d", name, round), rc, e.env, rng, r[0], r[1])
				}
			}
			if allocs := testing.AllocsPerRun(20, func() {
				rc.Sample(37, 261)
				rc.Live(40, 257)
			}); allocs != 0 {
				t.Errorf("%s: Sample and Live allocate %v times, want 0", name, allocs)
			}
		}
	}
}

// checkSample runs rc.Sample(lo, hi) and checks the bitmap, the count
// and Live over the sampled range, the whole population, and every
// empty, one-host, prefix and suffix range around it plus random ones.
func checkSample(t *testing.T, name string, rc *gossip.ColRound, e gossip.Environment, rng *xrand.Rand, lo, hi int) {
	t.Helper()
	n := len(rc.Alive)
	before := slices.Clone(rc.Alive)
	live := rc.Sample(lo, hi)
	sampled := make([]bool, n) // Alive within the sampled range
	want := 0
	for id, a := range rc.Alive {
		switch {
		case id < lo || id >= hi:
			if a != before[id] {
				t.Fatalf("%s: Sample(%d, %d) wrote Alive[%d] outside its range", name, lo, hi, id)
			}
		case a != e.Alive(gossip.NodeID(id), rc.Round):
			t.Fatalf("%s: Sample(%d, %d) left Alive[%d] = %v, per-host Alive says %v", name, lo, hi, id, a, !a)
		case a:
			sampled[id] = true
			want++
		}
	}
	if live != want {
		t.Errorf("%s: Sample(%d, %d) = %d, want %d", name, lo, hi, live, want)
	}
	check := func(a, b int) {
		t.Helper()
		var want []gossip.NodeID
		for id := max(a, 0); id < min(b, n); id++ {
			if sampled[id] {
				want = append(want, gossip.NodeID(id))
			}
		}
		if got := rc.Live(a, b); !slices.Equal(got, want) {
			t.Fatalf("%s: after Sample(%d, %d), Live(%d, %d) = %v, want %v", name, lo, hi, a, b, got, want)
		}
	}
	check(lo, hi)
	check(0, n)
	for id := lo - 1; id <= hi; id++ {
		check(id, id)   // empty
		check(id, id+1) // one host, dead or alive
		check(id, hi)   // starts on every host
		check(lo, id)   // ends on every host
	}
	for k := 0; k < 20; k++ {
		a := lo + rng.Intn(hi-lo+1)
		check(a, a+rng.Intn(hi-a+1))
	}
}
