// Package failure injects the evaluation's failure models into a
// running simulation. Failures are always *silent*: the environment's
// liveness flips and nothing else is told. Locally, a failed peer is
// indistinguishable from one that moved away — the situation the
// dynamic protocols are designed for.
package failure

import (
	"slices"

	"dynagg/internal/env"
	"dynagg/internal/gossip"
	"dynagg/internal/xrand"
)

// RandomAt returns a BeforeRound hook that, at the given round, fails
// a uniform random fraction of the currently live hosts — the
// "uncorrelated failures" model of Figure 8 (50,000 of 100,000 random
// hosts at round 20).
func RandomAt(round int, frac float64, pop *env.Population, seed uint64) gossip.Hook {
	return func(r int, e *gossip.Engine) {
		if r != round {
			return
		}
		rng := xrand.New(seed)
		live := append([]gossip.NodeID(nil), pop.AliveIDs()...)
		// Sort for determinism: AliveIDs order depends on history.
		slices.Sort(live)
		k := int(frac * float64(len(live)))
		idx := rng.Sample(make([]int, k), len(live))
		for _, i := range idx {
			pop.Fail(live[i])
		}
	}
}

// TopValuedAt returns a BeforeRound hook that, at the given round,
// fails the highest-valued fraction of the live hosts — the
// "correlated failures" model of Figure 10 (failing the top-valued
// half drops the true average from 50 to 25). values[i] is host i's
// data value.
func TopValuedAt(round int, frac float64, pop *env.Population, values []float64) gossip.Hook {
	return func(r int, e *gossip.Engine) {
		if r != round {
			return
		}
		live := append([]gossip.NodeID(nil), pop.AliveIDs()...)
		slices.SortFunc(live, func(a, b gossip.NodeID) int {
			switch va, vb := values[a], values[b]; {
			case va > vb:
				return -1 // highest first
			case va < vb:
				return 1
			}
			return int(a) - int(b)
		})
		k := int(frac * float64(len(live)))
		for _, id := range live[:k] {
			pop.Fail(id)
		}
	}
}

// RegionOutage returns a BeforeRound hook implementing a correlated
// regional outage that heals: every host in [lo, hi) fails at round
// start and revives at round end. Hosts outside the region never
// notice beyond their peers going silent — the datacenter-loses-power
// model uncorrelated churn cannot express.
func RegionOutage(start, end, lo, hi int, pop *env.Population) gossip.Hook {
	return func(r int, e *gossip.Engine) {
		switch r {
		case start:
			for id := lo; id < hi; id++ {
				pop.Fail(gossip.NodeID(id))
			}
		case end:
			for id := lo; id < hi; id++ {
				pop.Revive(gossip.NodeID(id))
			}
		}
	}
}

// ChurnStorm returns a BeforeRound hook implementing repeating churn
// bursts: from round start on, every period rounds the population
// endures burst consecutive rounds of per-host fail/revive churn at
// the given rate, then goes quiet again — sustained instability with
// calm windows for recovery. In a churn round each live host fails
// with probability rate and each dead one rejoins with the same
// probability, so the population stays in motion without draining.
// A period of 1 with a burst of 1 never closes the gate: continuous
// churn from round start on.
func ChurnStorm(start, period, burst int, rate float64, pop *env.Population, seed uint64) gossip.Hook {
	rng := xrand.New(seed)
	return func(r int, e *gossip.Engine) {
		if r < start || (r-start)%period >= burst {
			return
		}
		n := pop.Size()
		for i := 0; i < n; i++ {
			id := gossip.NodeID(i)
			if pop.Alive(id) {
				if rng.Prob(rate) {
					pop.Fail(id)
				}
			} else if rng.Prob(rate) {
				pop.Revive(id)
			}
		}
	}
}

// FailSet returns a BeforeRound hook that fails an explicit host set at
// the given round, for scripted scenarios.
func FailSet(round int, ids []gossip.NodeID, pop *env.Population) gossip.Hook {
	return func(r int, e *gossip.Engine) {
		if r != round {
			return
		}
		for _, id := range ids {
			pop.Fail(id)
		}
	}
}

// ReviveSet returns a BeforeRound hook that revives an explicit host
// set at the given round (a join wave).
func ReviveSet(round int, ids []gossip.NodeID, pop *env.Population) gossip.Hook {
	return func(r int, e *gossip.Engine) {
		if r != round {
			return
		}
		for _, id := range ids {
			pop.Revive(id)
		}
	}
}
