package chaos

import (
	"dynagg/internal/gossip"
	"dynagg/internal/protocol/pushsumrevert"
	"dynagg/internal/protocol/sketchreset"
	"dynagg/internal/xrand"
)

// byzantineAgent is the common wrapper shape: it delegates the whole
// Agent surface to the honest inner node and corrupts only the
// emission path, so SumMass's census can read the host's true state
// through unwrap while the network sees the lie. Wrappers deliberately do not
// implement gossip.AppendEmitter — the engine falls back to Emit, the
// only path the corruption covers.
type byzantineAgent interface {
	gossip.Agent
	unwrap() gossip.Agent
}

// honest peels every Byzantine wrapper off ag, returning the real
// node whose state SumMass censuses.
func honest(ag gossip.Agent) gossip.Agent {
	for {
		b, isByz := ag.(byzantineAgent)
		if !isByz {
			return ag
		}
		ag = b.unwrap()
	}
}

// applyAdversaries replaces the first hosts of the population with
// Byzantine wrappers, one contiguous block per adversary in schedule
// order. Returns the number of corrupted hosts.
func applyAdversaries(s Scenario, agents []gossip.Agent) int {
	lo := 0
	for _, a := range s.Adversaries {
		k := a.byzantineCount(len(agents))
		if lo+k > len(agents) {
			k = len(agents) - lo
		}
		for i := lo; i < lo+k; i++ {
			switch a.Kind {
			case AdvLyingMass:
				agents[i] = &lyingAgent{inner: agents[i], value: a.Value, start: a.Start}
			case AdvReplay:
				agents[i] = &replayAgent{inner: agents[i], start: a.Start}
			case AdvSketchBits:
				agents[i] = &fakeBitsAgent{inner: agents[i], start: a.Start}
			}
		}
		lo += k
	}
	return lo
}

// lyingAgent claims its local reading is value: every emitted mass
// message carries V = W·value in place of the true value mass. The
// weight mass stays honest, so the lie corrupts the average without
// touching convergence — the hardest variant to notice from rates
// alone, and exactly what the mass-conservation audit catches as
// value-mass drift.
type lyingAgent struct {
	inner gossip.Agent
	value float64
	start int
}

func (a *lyingAgent) unwrap() gossip.Agent      { return a.inner }
func (a *lyingAgent) BeginRound(round int)      { a.inner.BeginRound(round) }
func (a *lyingAgent) Receive(payload any)       { a.inner.Receive(payload) }
func (a *lyingAgent) EndRound(round int)        { a.inner.EndRound(round) }
func (a *lyingAgent) Estimate() (float64, bool) { return a.inner.Estimate() }

func (a *lyingAgent) Emit(round int, rng *xrand.Rand, pick gossip.PeerPicker) []gossip.Envelope {
	out := a.inner.Emit(round, rng, pick)
	if round < a.start {
		return out
	}
	for i := range out {
		out[i].Payload = lieAboutMass(out[i].Payload, a.value)
	}
	return out
}

// lieAboutMass returns a mass payload whose value component claims the
// host's reading is value; unknown payload shapes pass through.
func lieAboutMass(payload any, value float64) any {
	if m, ok := payload.(*pushsumrevert.Mass); ok {
		return &pushsumrevert.Mass{W: m.W, V: m.W * value}
	}
	return payload
}

// replayAgent captures its round-start emissions and replays those
// stale payloads to freshly picked peers every later round, while
// silently hoarding everything it receives — the captured-sketch
// replay attack. Every replayed message injects fabricated mass, so
// total system mass drifts linearly and the audit flags it.
type replayAgent struct {
	inner    gossip.Agent
	start    int
	captured []any
}

func (a *replayAgent) unwrap() gossip.Agent      { return a.inner }
func (a *replayAgent) BeginRound(round int)      { a.inner.BeginRound(round) }
func (a *replayAgent) Receive(payload any)       { a.inner.Receive(payload) }
func (a *replayAgent) EndRound(round int)        { a.inner.EndRound(round) }
func (a *replayAgent) Estimate() (float64, bool) { return a.inner.Estimate() }

func (a *replayAgent) Emit(round int, rng *xrand.Rand, pick gossip.PeerPicker) []gossip.Envelope {
	if round < a.start {
		return a.inner.Emit(round, rng, pick)
	}
	if a.captured == nil {
		// Emit payloads may alias the inner node's scratch, which its
		// later rounds rewrite: the capture keeps detached copies.
		out := a.inner.Emit(round, rng, pick)
		for _, env := range out {
			p := env.Payload
			if d, ok := p.(gossip.Detacher); ok {
				p = d.Detach()
			}
			a.captured = append(a.captured, p)
		}
		return out
	}
	out := make([]gossip.Envelope, 0, len(a.captured))
	for _, p := range a.captured {
		if peer, ok := pick(); ok {
			out = append(out, gossip.Envelope{To: peer, Payload: p})
		}
	}
	return out
}

// fakeBitsAgent zeroes every age counter in its emitted sketch
// snapshots — claiming every bit at every level was sourced this
// round. Min-merge spreads the fabricated bits through the honest
// population and the size estimate inflates toward the sketch
// ceiling; the damage metric records the blow-up.
type fakeBitsAgent struct {
	inner gossip.Agent
	start int
}

func (a *fakeBitsAgent) unwrap() gossip.Agent      { return a.inner }
func (a *fakeBitsAgent) BeginRound(round int)      { a.inner.BeginRound(round) }
func (a *fakeBitsAgent) Receive(payload any)       { a.inner.Receive(payload) }
func (a *fakeBitsAgent) EndRound(round int)        { a.inner.EndRound(round) }
func (a *fakeBitsAgent) Estimate() (float64, bool) { return a.inner.Estimate() }

func (a *fakeBitsAgent) Emit(round int, rng *xrand.Rand, pick gossip.PeerPicker) []gossip.Envelope {
	out := a.inner.Emit(round, rng, pick)
	if round < a.start {
		return out
	}
	for i := range out {
		if c, ok := out[i].Payload.(*sketchreset.Counters); ok {
			// The snapshot is the host's emission scratch, rewritten
			// from its matrix every round: zeroing it corrupts only the
			// emitted copy, not agent state.
			clear(c.Ages)
		}
	}
	return out
}
