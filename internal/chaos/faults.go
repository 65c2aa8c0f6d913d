package chaos

import (
	"sync/atomic"

	"dynagg/internal/env"
	"dynagg/internal/failure"
	"dynagg/internal/gossip"
	"dynagg/internal/xrand"
)

// pickRetries bounds how many environment draws the fault filter
// spends looking for a reachable peer before declaring the host
// isolated (ok=false). Both engine backends consume the same PRNG
// stream through Pick, so retrying preserves classic/columnar parity.
const pickRetries = 16

// faultEnv wraps the base Environment with the round-scoped fault
// filters of a Scenario: partitions reject cross-side peers, clock
// skew puts host regions to sleep on off-cycle rounds. Mass never
// leaves the system through the filter — an isolated host's protocol
// keeps its mass locally (ok=false from Pick), and sleeping hosts
// neither emit nor get picked.
type faultEnv struct {
	inner  gossip.Environment
	n      int
	faults []Fault
	// denied counts contacts denied per fault (same index as faults);
	// atomics because the sharded executor calls Pick concurrently.
	denied []atomic.Int64
}

func newFaultEnv(inner gossip.Environment, s Scenario) *faultEnv {
	fe := &faultEnv{inner: inner, n: s.N}
	for _, f := range s.Faults {
		if f.Kind == FaultPartition || f.Kind == FaultClockSkew {
			fe.faults = append(fe.faults, f)
		}
	}
	fe.denied = make([]atomic.Int64, len(fe.faults))
	return fe
}

// Size implements gossip.Environment.
func (fe *faultEnv) Size() int { return fe.inner.Size() }

// Advance implements gossip.Environment.
func (fe *faultEnv) Advance(round int) { fe.inner.Advance(round) }

// Alive implements gossip.Environment: the base liveness, minus hosts
// whose clock-skewed group is asleep this round.
func (fe *faultEnv) Alive(id gossip.NodeID, round int) bool {
	return fe.inner.Alive(id, round) && fe.awake(id, round)
}

// AliveRange implements gossip.Environment: the base liveness, then
// the hosts asleep this round cleared.
func (fe *faultEnv) AliveRange(lo, hi, round int, dst []bool) {
	fe.inner.AliveRange(lo, hi, round, dst)
	for i := range dst[:hi-lo] {
		dst[i] = dst[i] && fe.awake(gossip.NodeID(lo+i), round)
	}
}

// Pick implements gossip.Environment: draws from the base
// environment, rejecting peers that are across an active partition or
// asleep under clock skew. Every rejected draw counts against the
// fault (the denied-contact tally is fault pressure: how often the
// fault forced gossip away from its chosen peer); after pickRetries
// rejections the host counts as isolated this round and ok is false.
func (fe *faultEnv) Pick(id gossip.NodeID, round int, rng *xrand.Rand) (gossip.NodeID, bool) {
	for attempt := 0; attempt < pickRetries; attempt++ {
		peer, ok := fe.inner.Pick(id, round, rng)
		if !ok {
			return 0, false
		}
		if fi := fe.blocks(id, peer, round); fi >= 0 {
			fe.denied[fi].Add(1)
			continue
		}
		return peer, true
	}
	return 0, false
}

// blocks returns the index of the first fault that forbids the
// id→peer contact this round, or −1 if the contact is allowed.
func (fe *faultEnv) blocks(id, peer gossip.NodeID, round int) int {
	for i := range fe.faults {
		f := &fe.faults[i]
		if round < f.Start || round >= f.End {
			continue
		}
		switch f.Kind {
		case FaultPartition:
			if partitionSide(int(id), fe.n, f.parts()) != partitionSide(int(peer), fe.n, f.parts()) {
				return i
			}
		case FaultClockSkew:
			if !skewAwake(int(peer), round, f) {
				return i
			}
		}
	}
	return -1
}

func (fe *faultEnv) awake(id gossip.NodeID, round int) bool {
	for i := range fe.faults {
		f := &fe.faults[i]
		if f.Kind != FaultClockSkew || round < f.Start || round >= f.End {
			continue
		}
		if !skewAwake(int(id), round, f) {
			return false
		}
	}
	return true
}

// deniedCounts snapshots the per-fault denied-contact counters in
// fault order.
func (fe *faultEnv) deniedCounts() []FaultLoss {
	out := make([]FaultLoss, len(fe.faults))
	for i := range fe.faults {
		out[i] = FaultLoss{Kind: fe.faults[i].Kind, Count: fe.denied[i].Load()}
	}
	return out
}

func (f *Fault) parts() int {
	if f.Parts == 0 {
		return 2
	}
	return f.Parts
}

// partitionSide maps host id to its contiguous partition block: the
// population splits into parts equal ranges, matching how live spans
// tile the id space.
func partitionSide(id, n, parts int) int {
	s := id * parts / n
	if s >= parts {
		s = parts - 1
	}
	return s
}

// skewAwake reports whether a host in fault f's skewed region acts
// this round: hosts outside [Lo,Hi) always do, hosts inside only on
// every Period-th round of the window.
func skewAwake(id, round int, f *Fault) bool {
	if id < f.Lo || id >= f.Hi {
		return true
	}
	return (round-f.Start)%f.Period == 0
}

// populationHooks builds the BeforeRound hooks for the faults that
// mutate the live/dead population (outages, churn storms, crash
// restarts). seed salts the churn PRNG so distinct storms in one
// scenario stay independent; reset restores one host's protocol state
// for a crash restart (nil when the protocol has none to reset).
func populationHooks(s Scenario, pop *env.Population, seed uint64, reset func(gossip.NodeID)) []gossip.Hook {
	var hooks []gossip.Hook
	for i, f := range s.Faults {
		switch f.Kind {
		case FaultOutage:
			hooks = append(hooks, failure.RegionOutage(f.Start, f.End, f.Lo, f.Hi, pop))
		case FaultChurnStorm:
			burst := f.Burst
			if burst == 0 {
				burst = 1
			}
			hooks = append(hooks, failure.ChurnStorm(f.Start, f.Period, burst, f.Rate, pop, seed+uint64(i)*0x9e3779b97f4a7c15))
		case FaultCrashRestart:
			hooks = append(hooks, crashRestart(f.Start, f.End, f.Lo, f.Hi, pop, reset))
		}
	}
	return hooks
}

// crashRestart returns a BeforeRound hook executing the crashrestart
// fault on the round engine: the region fails at start — silence,
// exactly like RegionOutage — and revives at end with RESET protocol
// state, so the region's accumulated gossip mass is gone and only the
// initial endowment returns. reset restores one honest host, so the
// adversary behaviour of a wrapped one resumes on the fresh state, as
// a re-infected restarted process would. Running as a fault hook
// (before the audit's expectation hook) keeps the mass audit clean:
// the audit measures the post-reset totals, just as the live audit
// censuses a respawned member's fresh endowment.
func crashRestart(start, end, lo, hi int, pop *env.Population, reset func(gossip.NodeID)) gossip.Hook {
	return func(r int, e *gossip.Engine) {
		switch r {
		case start:
			for id := lo; id < hi; id++ {
				pop.Fail(gossip.NodeID(id))
			}
		case end:
			for id := lo; id < hi; id++ {
				reset(gossip.NodeID(id))
				pop.Revive(gossip.NodeID(id))
			}
		}
	}
}
