package chaos

import (
	"math"

	"dynagg/internal/gossip"
	"dynagg/internal/gossip/live/transport"
	"dynagg/internal/protocol/pushsumrevert"
)

// Corrupt applies the scenario's adversary schedule to an agent slice
// — the live-engine counterpart of what RunWith does internally
// before building the round engine. It replaces the leading hosts
// with Byzantine wrappers (one contiguous block per adversary) and
// returns how many hosts were corrupted. Rounds in the adversary
// schedule map to live ticks.
func Corrupt(s Scenario, agents []gossip.Agent) int {
	return applyAdversaries(s, agents)
}

// SumMass censuses the total (w, v) mass held by an agent slice,
// unwrapping Byzantine agents so the census sees true state. ok is
// false if any agent has no mass semantics.
func SumMass(agents []gossip.Agent) (w, v float64, ok bool) {
	for _, ag := range agents {
		aw, av, aok := agentMass(ag)
		if !aok {
			return 0, 0, false
		}
		w += aw
		v += av
	}
	return w, v, true
}

// agentMass reads one classic agent's true mass vector, unwrapping
// Byzantine wrappers.
func agentMass(ag gossip.Agent) (w, v float64, ok bool) {
	if n, ok := honest(ag).(*pushsumrevert.Node); ok {
		m := n.Mass()
		return m.W, m.V, true
	}
	return 0, 0, false
}

// InFlightMass drains every host queue of tr, summing the mass
// payloads still undelivered when a run ended. The live engine has no
// final synchronized drain — hosts that finish their ticks early stop
// consuming, so a census over agent state alone undercounts by
// whatever is stranded in their queues. Call this once after Run and
// add the result to SumMass totals. Destructive: the drained messages
// are consumed. Non-mass payloads are ignored.
func InFlightMass(tr transport.Transport, hosts int) (w, v float64) {
	for id := gossip.NodeID(0); id < gossip.NodeID(hosts); id++ {
		tr.Drain(id, func(p any) {
			switch m := p.(type) {
			case pushsumrevert.Mass:
				w += m.W
				v += m.V
			case *pushsumrevert.Mass:
				w += m.W
				v += m.V
			}
		})
	}
	return w, v
}

// LiveMassAudit judges an end-of-run mass census from a live run
// (SumMass over agents plus InFlightMass over the transport, taken
// before and after Run). The live engine has no synchronous rounds to
// audit a conservation recurrence against, and absolute totals are
// not invariant there: a λ-reverting population legally regenerates
// mass whenever peers stop consuming (a crashed process, a stalled
// shard), so honest totals can drift far from the endowment. What
// honest runs cannot move is the system-wide mass RATIO ΣV/ΣW —
// splitting preserves each parcel's ratio, merging and reversion keep
// the global ratio a convex combination of true host values — so it
// stays near the endowment ratio (the true mean). Fabricated payloads
// claiming values outside the population's are the only thing that
// drags it away; a relative ratio drift above tol flags them. Losses
// biased toward one value region shift the honest ratio too, which is
// why tol is a tolerance and not zero.
func LiveMassAudit(initialW, initialV, finalW, finalV, tol float64) AuditReport {
	rep := AuditReport{Applicable: true, Tolerance: tol, FirstViolation: -1}
	if initialW == 0 || finalW == 0 {
		rep.Violations = 1
		rep.FirstViolation = 0
		rep.MaxDrift = math.Inf(1)
		return rep
	}
	ratio0 := initialV / initialW
	ratio1 := finalV / finalW
	rep.MaxDrift = math.Abs(ratio1-ratio0) / math.Abs(ratio0)
	if rep.MaxDrift > tol {
		rep.Violations = 1
		rep.FirstViolation = 0
	}
	return rep
}
