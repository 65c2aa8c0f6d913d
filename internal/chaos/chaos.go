// Package chaos is a seeded, deterministic scenario engine for the
// gossip stack: it composes faults (healing partitions, correlated
// regional outages, repeating churn storms, clock-skewed host
// groups), adversaries (Byzantine hosts that lie about masses, replay
// captured payloads, or inflate sketch bits), and defenses (a
// mass-conservation audit plus damage metrics against ground truth)
// into declarative Scenario values, runs them against the round
// engine (classic or columnar), and reports a machine-readable
// Report. The live engine reuses the same Scenario vocabulary through
// Net (a Transport wrapper that turns partition/outage windows into
// link kills and delivery filters).
//
// Determinism contract: the same Scenario and seed produce a
// byte-identical JSON Report on the round engine, regardless of
// backend or worker count.
package chaos

import (
	"fmt"
	"sort"
)

// Fault kinds accepted by Scenario.Faults.
const (
	// FaultPartition splits the population into Parts contiguous
	// blocks for rounds [Start, End); peers across the cut are
	// unreachable, then the partition heals.
	FaultPartition = "partition"
	// FaultOutage fails every host in [Lo, Hi) at round Start and
	// revives them all at round End — a correlated regional outage
	// that heals.
	FaultOutage = "outage"
	// FaultChurnStorm applies per-host fail/revive churn at Rate
	// during repeating bursts: rounds r ≥ Start with
	// (r−Start) mod Period < Burst.
	FaultChurnStorm = "churnstorm"
	// FaultClockSkew makes hosts in [Lo, Hi) participate only every
	// Period-th round during [Start, End) — the round-engine model of
	// a host group ticking on a skewed, slower clock.
	FaultClockSkew = "clockskew"
	// FaultCrashRestart is the crash-with-amnesia fault: the hosts in
	// [Lo, Hi) — a member process's span — crash at round Start and
	// restart at End with RESET protocol state, their accumulated
	// gossip mass gone and only the initial endowment re-sourced.
	// Unlike FaultOutage, which revives hosts with their state intact,
	// this is the round-engine model of the live cluster's
	// kill-and-Replace choreography (internal/supervise restarts the
	// member, Bootstrap Replace reclaims the span). The round runner
	// needs mass semantics to reset, so it rejects crashrestart under
	// ProtoSketchReset.
	FaultCrashRestart = "crashrestart"
)

// Adversary kinds accepted by Scenario.Adversaries.
const (
	// AdvLyingMass makes Byzantine hosts claim their local reading is
	// Value: every emitted mass message carries V = W·Value instead
	// of the host's true value mass.
	AdvLyingMass = "lyingmass"
	// AdvReplay makes Byzantine hosts capture their round-Start
	// emissions and replay those stale payloads to fresh peers every
	// later round, while hoarding everything they receive.
	AdvReplay = "replay"
	// AdvSketchBits makes Byzantine hosts zero every counter in their
	// emitted sketch snapshots — claiming every bit at every level
	// was freshly sourced — which inflates the network-size estimate
	// toward the sketch's ceiling.
	AdvSketchBits = "sketchbits"
)

// Protocol names accepted by Scenario.Protocol.
const (
	// ProtoPushSum is plain Push-Sum mass averaging: Push-Sum-Revert
	// at λ = 0, whatever Scenario.Lambda says.
	ProtoPushSum = "pushsum"
	// ProtoRevert is Push-Sum-Revert (λ mass reversion).
	ProtoRevert = "revert"
	// ProtoSketchReset is Count-Sketch-Reset network-size estimation.
	ProtoSketchReset = "sketchreset"
)

// Fault is one scripted fault window inside a Scenario.
type Fault struct {
	// Kind is one of the Fault* constants.
	Kind string `json:"kind"`
	// Start is the first round (or live tick) the fault is active.
	Start int `json:"start"`
	// End is the first round the fault is no longer active. Faults
	// with a window heal at End; FaultChurnStorm ignores End (its
	// bursts repeat until the run ends).
	End int `json:"end,omitempty"`
	// Parts is the number of contiguous partition sides (FaultPartition
	// only); 0 means 2.
	Parts int `json:"parts,omitempty"`
	// Lo, Hi bound the affected host region [Lo, Hi) for FaultOutage
	// and FaultClockSkew.
	Lo int `json:"lo,omitempty"`
	Hi int `json:"hi,omitempty"`
	// Rate is the per-host fail/revive probability per burst round
	// (FaultChurnStorm only).
	Rate float64 `json:"rate,omitempty"`
	// Period is the burst repeat interval (FaultChurnStorm) or the
	// duty cycle (FaultClockSkew: affected hosts act once every
	// Period rounds).
	Period int `json:"period,omitempty"`
	// Burst is the number of consecutive storm rounds per period
	// (FaultChurnStorm only); 0 means 1.
	Burst int `json:"burst,omitempty"`
}

// Adversary is one Byzantine behaviour assignment inside a Scenario.
// The first ⌈Frac·N⌉ hosts are Byzantine; taking a contiguous prefix
// keeps scenarios deterministic and easy to reason about.
type Adversary struct {
	// Kind is one of the Adv* constants.
	Kind string `json:"kind"`
	// Frac is the fraction of hosts behaving Byzantine (0 < Frac ≤ 1).
	Frac float64 `json:"frac"`
	// Value is the claimed local reading for AdvLyingMass.
	Value float64 `json:"value,omitempty"`
	// Start is the first round the adversary misbehaves.
	Start int `json:"start,omitempty"`
}

// Scenario declares one chaos run: a population, a protocol, and the
// fault and adversary schedule. Scenarios are plain data — they
// marshal to/from JSON (see Decode) and the same Scenario+seed always
// produces the same Report.
type Scenario struct {
	// Name identifies the scenario in reports.
	Name string `json:"name"`
	// N is the host population size.
	N int `json:"n"`
	// Rounds is the number of gossip rounds to run.
	Rounds int `json:"rounds"`
	// Protocol is one of the Proto* constants.
	Protocol string `json:"protocol"`
	// Lambda is the reversion weight for ProtoRevert (default 0.1).
	Lambda float64 `json:"lambda,omitempty"`
	// Faults is the scripted fault schedule.
	Faults []Fault `json:"faults,omitempty"`
	// Adversaries is the Byzantine behaviour schedule.
	Adversaries []Adversary `json:"adversaries,omitempty"`
	// RecoveryTol is the max relative error under which the
	// population counts as recovered (default 0.05; sketch scenarios
	// want a looser bound, the sketch carries multiplicative error).
	RecoveryTol float64 `json:"recovery_tol,omitempty"`
}

// Validate reports whether the scenario is runnable.
func (s Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("chaos: scenario needs a name")
	}
	if s.N < 2 {
		return fmt.Errorf("chaos: scenario %q: need N >= 2, got %d", s.Name, s.N)
	}
	if s.Rounds < 1 {
		return fmt.Errorf("chaos: scenario %q: need Rounds >= 1, got %d", s.Name, s.Rounds)
	}
	switch s.Protocol {
	case ProtoPushSum, ProtoRevert, ProtoSketchReset:
	default:
		return fmt.Errorf("chaos: scenario %q: unknown protocol %q", s.Name, s.Protocol)
	}
	if s.Lambda < 0 || s.Lambda >= 1 {
		return fmt.Errorf("chaos: scenario %q: Lambda must be in [0,1), got %v", s.Name, s.Lambda)
	}
	if s.RecoveryTol < 0 {
		return fmt.Errorf("chaos: scenario %q: negative RecoveryTol", s.Name)
	}
	for i, f := range s.Faults {
		if err := s.validateFault(f); err != nil {
			return fmt.Errorf("chaos: scenario %q: fault %d: %w", s.Name, i, err)
		}
	}
	for i, a := range s.Adversaries {
		if err := s.validateAdversary(a); err != nil {
			return fmt.Errorf("chaos: scenario %q: adversary %d: %w", s.Name, i, err)
		}
	}
	return nil
}

func (s Scenario) validateFault(f Fault) error {
	if f.Start < 0 {
		return fmt.Errorf("negative Start %d", f.Start)
	}
	switch f.Kind {
	case FaultPartition:
		if f.End <= f.Start {
			return fmt.Errorf("partition window [%d,%d) is empty", f.Start, f.End)
		}
		if p := f.Parts; p != 0 && (p < 2 || p > s.N) {
			return fmt.Errorf("Parts %d out of range [2,%d]", p, s.N)
		}
	case FaultOutage, FaultClockSkew:
		if f.End <= f.Start {
			return fmt.Errorf("%s window [%d,%d) is empty", f.Kind, f.Start, f.End)
		}
		if f.Lo < 0 || f.Hi <= f.Lo || f.Hi > s.N {
			return fmt.Errorf("%s region [%d,%d) out of range [0,%d)", f.Kind, f.Lo, f.Hi, s.N)
		}
		if f.Kind == FaultOutage && f.Hi-f.Lo >= s.N {
			return fmt.Errorf("outage region covers the whole population")
		}
		if f.Kind == FaultClockSkew && f.Period < 2 {
			return fmt.Errorf("clockskew needs Period >= 2, got %d", f.Period)
		}
	case FaultChurnStorm:
		if f.Rate <= 0 || f.Rate > 1 {
			return fmt.Errorf("churnstorm Rate %v out of (0,1]", f.Rate)
		}
		if f.Period < 1 {
			return fmt.Errorf("churnstorm needs Period >= 1, got %d", f.Period)
		}
		if f.Burst < 0 || f.Burst > f.Period {
			return fmt.Errorf("churnstorm Burst %d out of [0,Period]", f.Burst)
		}
	case FaultCrashRestart:
		if f.End <= f.Start {
			return fmt.Errorf("crashrestart window [%d,%d) is empty", f.Start, f.End)
		}
		if f.Lo < 0 || f.Hi <= f.Lo || f.Hi > s.N {
			return fmt.Errorf("crashrestart region [%d,%d) out of range [0,%d)", f.Lo, f.Hi, s.N)
		}
		if f.Hi-f.Lo >= s.N {
			return fmt.Errorf("crashrestart region covers the whole population")
		}
	default:
		return fmt.Errorf("unknown fault kind %q", f.Kind)
	}
	return nil
}

func (s Scenario) validateAdversary(a Adversary) error {
	if a.Frac <= 0 || a.Frac > 1 {
		return fmt.Errorf("Frac %v out of (0,1]", a.Frac)
	}
	if a.Start < 0 {
		return fmt.Errorf("negative Start %d", a.Start)
	}
	switch a.Kind {
	case AdvLyingMass:
		if s.Protocol == ProtoSketchReset {
			return fmt.Errorf("lyingmass needs a mass protocol, scenario runs %q", s.Protocol)
		}
	case AdvReplay:
		if s.Protocol == ProtoSketchReset {
			return fmt.Errorf("replay needs a mass protocol, scenario runs %q", s.Protocol)
		}
	case AdvSketchBits:
		if s.Protocol != ProtoSketchReset {
			return fmt.Errorf("sketchbits needs protocol %q, scenario runs %q", ProtoSketchReset, s.Protocol)
		}
	default:
		return fmt.Errorf("unknown adversary kind %q", a.Kind)
	}
	return nil
}

// byzantineCount returns how many hosts adversary a corrupts in an
// N-host population: ⌈Frac·N⌉, at least 1.
func (a Adversary) byzantineCount(n int) int {
	c := int(a.Frac * float64(n))
	if float64(c) < a.Frac*float64(n) {
		c++
	}
	if c < 1 {
		c = 1
	}
	if c > n {
		c = n
	}
	return c
}

// needsMass reports whether the round runner needs mass semantics
// (a Reset target) to execute the fault.
func (f Fault) needsMass() bool { return f.Kind == FaultCrashRestart }

// catalog is the named scenario registry. One entry per fault family
// plus the Byzantine baselines; ByName/Names expose it.
var catalog = map[string]Scenario{
	"partition-heal": {
		Name: "partition-heal", N: 512, Rounds: 80, Protocol: ProtoPushSum,
		Faults: []Fault{{Kind: FaultPartition, Start: 10, End: 40, Parts: 2}},
	},
	"regional-outage": {
		Name: "regional-outage", N: 512, Rounds: 100, Protocol: ProtoRevert, Lambda: 0.1,
		Faults: []Fault{{Kind: FaultOutage, Start: 20, End: 50, Lo: 0, Hi: 128}},
		// λ=0.1 floors the population error near 9%, so recovery is
		// judged against a tolerance above that intrinsic bias.
		RecoveryTol: 0.15,
	},
	"churn-storm": {
		Name: "churn-storm", N: 512, Rounds: 100, Protocol: ProtoRevert, Lambda: 0.1,
		Faults:      []Fault{{Kind: FaultChurnStorm, Start: 10, Rate: 0.05, Period: 20, Burst: 3}},
		RecoveryTol: 0.10,
	},
	"crash-restart": {
		Name: "crash-restart", N: 512, Rounds: 100, Protocol: ProtoRevert, Lambda: 0.1,
		// The last quarter of the id space — one member's span in a
		// four-member cluster — crashes at round 20 and restarts with
		// amnesia at round 45. Same λ=0.1 intrinsic-bias floor as
		// regional-outage.
		Faults:      []Fault{{Kind: FaultCrashRestart, Start: 20, End: 45, Lo: 384, Hi: 512}},
		RecoveryTol: 0.15,
	},
	"clock-skew": {
		Name: "clock-skew", N: 512, Rounds: 100, Protocol: ProtoRevert, Lambda: 0.1,
		Faults: []Fault{{Kind: FaultClockSkew, Start: 10, End: 70, Lo: 384, Hi: 512, Period: 4}},
		// Same λ=0.1 intrinsic-bias floor as regional-outage.
		RecoveryTol: 0.15,
	},
	"sketch-partition": {
		Name: "sketch-partition", N: 512, Rounds: 80, Protocol: ProtoSketchReset,
		Faults:      []Fault{{Kind: FaultPartition, Start: 10, End: 40, Parts: 2}},
		RecoveryTol: 0.75,
	},
	"byzantine-lying-1": {
		Name: "byzantine-lying-1", N: 512, Rounds: 80, Protocol: ProtoRevert, Lambda: 0.1,
		Adversaries: []Adversary{{Kind: AdvLyingMass, Frac: 0.01, Value: 100, Start: 10}},
	},
	"byzantine-lying-5": {
		Name: "byzantine-lying-5", N: 512, Rounds: 80, Protocol: ProtoRevert, Lambda: 0.1,
		Adversaries: []Adversary{{Kind: AdvLyingMass, Frac: 0.05, Value: 100, Start: 10}},
	},
	"byzantine-replay": {
		Name: "byzantine-replay", N: 512, Rounds: 80, Protocol: ProtoPushSum,
		Adversaries: []Adversary{{Kind: AdvReplay, Frac: 0.02, Start: 10}},
	},
	"byzantine-sketch": {
		Name: "byzantine-sketch", N: 512, Rounds: 60, Protocol: ProtoSketchReset,
		Adversaries: []Adversary{{Kind: AdvSketchBits, Frac: 0.02, Start: 10}},
		RecoveryTol: 0.75,
	},
}

// ByName returns a catalog scenario by name.
func ByName(name string) (Scenario, bool) {
	s, ok := catalog[name]
	return s, ok
}

// Names returns the catalog scenario names, sorted.
func Names() []string {
	out := make([]string, 0, len(catalog))
	for n := range catalog {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
