package chaos

import (
	"testing"

	"dynagg/internal/env"
	"dynagg/internal/gossip"
	"dynagg/internal/xrand"
)

// TestFaultEnvAliveRangeMatchesAlive: the fault filter's bulk liveness,
// which the round engine samples, equals its per-host Alive, which the
// audit and EstimateOf read, under a partition and under clock skew.
// It is checked before, inside and after the fault windows, after Fail
// and Revive, over full, empty, single-host and random ranges.
func TestFaultEnvAliveRangeMatchesAlive(t *testing.T) {
	const n = 97
	scenarios := map[string][]Fault{
		"partition": {{Kind: FaultPartition, Start: 2, End: 6, Parts: 3}},
		"clockskew": {{Kind: FaultClockSkew, Start: 2, End: 9, Lo: 10, Hi: 60, Period: 3}},
		"both": {
			{Kind: FaultPartition, Start: 0, End: 5},
			{Kind: FaultClockSkew, Start: 1, End: 8, Lo: 50, Hi: n, Period: 2},
			{Kind: FaultClockSkew, Start: 3, End: 6, Lo: 0, Hi: 30, Period: 4},
		},
	}
	rng := xrand.New(11)
	for name, faults := range scenarios {
		u := env.NewUniform(n)
		fe := newFaultEnv(u, Scenario{N: n, Faults: faults})
		dst := make([]bool, n)
		asleep := 0
		for round := 0; round < 10; round++ {
			for k := 0; k < 8; k++ {
				if id := gossip.NodeID(rng.Intn(n)); rng.Bool() {
					u.Fail(id)
				} else {
					u.Revive(id)
				}
			}
			ranges := [][2]int{{0, n}, {n / 2, n / 2}, {0, 1}, {n - 1, n}, {10, 11}, {59, 61}}
			for k := 0; k < 6; k++ {
				lo := rng.Intn(n + 1)
				ranges = append(ranges, [2]int{lo, lo + rng.Intn(n-lo+1)})
			}
			for _, r := range ranges {
				lo, hi := r[0], r[1]
				for i := range dst {
					dst[i] = rng.Bool() // AliveRange must write every entry
				}
				fe.AliveRange(lo, hi, round, dst)
				for id := lo; id < hi; id++ {
					want := fe.Alive(gossip.NodeID(id), round)
					if dst[id-lo] != want {
						t.Fatalf("%s round %d: AliveRange(%d, %d) says host %d is %v, Alive says %v",
							name, round, lo, hi, id, dst[id-lo], want)
					}
					if u.Alive(gossip.NodeID(id), round) && !want {
						asleep++
					}
				}
			}
		}
		if name != "partition" && asleep == 0 {
			t.Errorf("%s: no live host was ever asleep; the skew went unchecked", name)
		}
	}
}
