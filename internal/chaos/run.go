package chaos

import (
	"encoding/json"
	"fmt"
	"math"

	"dynagg/internal/env"
	"dynagg/internal/gossip"
	"dynagg/internal/protocol/pushsumrevert"
	"dynagg/internal/protocol/sketchreset"
	"dynagg/internal/sketch"
	"dynagg/internal/xrand"
)

// valueSeedSalt decouples the data-value draw from the engine's
// per-host gossip PRNGs so the two streams never correlate.
const valueSeedSalt = 0x9e3779b97f4a7c15

// FaultLoss is the per-fault loss tally of a Report. On the round
// engine Count is the number of peer draws the fault deflected or
// denied — fault pressure on gossip, since mass never drops in flight
// there (see AuditReport); on the live engine it is real messages the
// fault destroyed.
type FaultLoss struct {
	// Kind names the fault.
	Kind string `json:"kind"`
	// Count is the tally.
	Count int64 `json:"count"`
}

// DamageReport scores estimator damage against ground truth.
type DamageReport struct {
	// MaxRelErr is the worst per-round population error over the run
	// — the peak of the Trajectory, the headline damage number.
	MaxRelErr float64 `json:"max_rel_err"`
	// FinalRelErr is the last round's population error.
	FinalRelErr float64 `json:"final_rel_err"`
	// RecoveryRound is the first round from which the error stays
	// within RecoveryTol to the end of the run; −1 if it never does.
	RecoveryRound int `json:"recovery_round"`
	// RecoveryTol is the threshold used.
	RecoveryTol float64 `json:"recovery_tol"`
}

// Report is the machine-readable outcome of one scenario run. For a
// given Scenario and seed the round engine produces a byte-identical
// JSON report (same backend), pinned by test.
type Report struct {
	// Scenario is the scenario name.
	Scenario string `json:"scenario"`
	// Seed is the run seed.
	Seed uint64 `json:"seed"`
	// Backend is "classic" or "columnar".
	Backend string `json:"backend"`
	// N and Rounds echo the scenario dimensions.
	N      int `json:"n"`
	Rounds int `json:"rounds"`
	// Protocol echoes the scenario protocol.
	Protocol string `json:"protocol"`
	// Byzantine is the number of hosts running adversary wrappers.
	Byzantine int `json:"byzantine"`
	// FinalTruth is the ground truth at the last round (the live
	// mean, or the live host count for sketchreset).
	FinalTruth float64 `json:"final_truth"`
	// Trajectory is the per-round population error: the mean relative
	// estimate error across live hosts (the error metric of the
	// paper's Figures 7 and 10 — a mean, not a max, because the
	// reverting protocols carry an intrinsic per-host bias toward the
	// local initial value that a worst-host metric would amplify into
	// noise).
	Trajectory []float64 `json:"trajectory"`
	// Lost tallies denied contacts (round engine) or destroyed
	// messages (live engine) per fault.
	Lost []FaultLoss `json:"lost"`
	// Messages is the total protocol payloads delivered.
	Messages int64 `json:"messages"`
	// Audit is the mass-conservation verdict.
	Audit AuditReport `json:"audit"`
	// Damage scores the estimators against ground truth.
	Damage DamageReport `json:"damage"`
}

// JSON renders the report as indented JSON (the determinism-pinned
// form).
func (r *Report) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// RunOpts selects the execution backend for Run.
type RunOpts struct {
	// Columnar runs the struct-of-arrays engine. Scenarios with
	// adversaries need per-host agents and reject it.
	Columnar bool
	// Workers is the round-executor worker count (0 = sequential).
	Workers int
}

// Run executes the scenario on the round engine with the classic
// per-agent backend.
func Run(s Scenario, seed uint64) (*Report, error) {
	return RunWith(s, seed, RunOpts{})
}

// RunWith executes the scenario on the round engine with explicit
// backend options and returns its Report.
func RunWith(s Scenario, seed uint64, opts RunOpts) (*Report, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	for _, f := range s.Faults {
		if f.needsMass() && s.Protocol == ProtoSketchReset {
			return nil, fmt.Errorf("chaos: scenario %q: fault %q needs a mass protocol to reset, scenario runs %q",
				s.Name, f.Kind, s.Protocol)
		}
	}
	if opts.Columnar && len(s.Adversaries) > 0 {
		return nil, fmt.Errorf("chaos: scenario %q: adversaries need per-host agents; columnar backend unsupported", s.Name)
	}

	values := scenarioValues(s.N, seed)
	environment := env.NewUniform(s.N)
	pop := environment.Population
	fe := newFaultEnv(environment, s)

	cfg := gossip.Config{Env: fe, Seed: seed, Workers: opts.Workers}
	lambda := 0.0
	byzantine := 0
	// The mass reader and the crash-restart reset act on the population
	// as built, under any Byzantine wrappers: the audit reads true
	// state and a restart resets the real host.
	var (
		massOf func(gossip.NodeID) pushsumrevert.Mass
		reset  func(gossip.NodeID)
	)
	switch s.Protocol {
	case ProtoPushSum, ProtoRevert:
		// Push-Sum is Push-Sum-Revert at λ = 0, whatever the scenario's
		// Lambda says; only the revert protocol reads it.
		if s.Protocol == ProtoRevert {
			lambda = s.Lambda
			if lambda == 0 {
				lambda = 0.1
			}
		}
		rcfg := pushsumrevert.Config{Lambda: lambda}
		if opts.Columnar {
			c := pushsumrevert.NewColumnar(values, rcfg)
			cfg.Columnar, massOf, reset = c, c.Mass, c.Reset
		} else {
			nodes := make([]*pushsumrevert.Node, s.N)
			agents := make([]gossip.Agent, s.N)
			for i := range agents {
				nodes[i] = pushsumrevert.New(gossip.NodeID(i), values[i], rcfg)
				agents[i] = nodes[i]
			}
			massOf = func(id gossip.NodeID) pushsumrevert.Mass { return nodes[id].Mass() }
			reset = func(id gossip.NodeID) { nodes[id].Reset() }
			byzantine = applyAdversaries(s, agents)
			cfg.Agents = agents
		}
	case ProtoSketchReset:
		scfg := sketchreset.Config{Params: sketch.DefaultParams, Identifiers: 1}
		if opts.Columnar {
			cfg.Columnar = sketchreset.NewColumnar(s.N, scfg)
		} else {
			agents := make([]gossip.Agent, s.N)
			for i := range agents {
				agents[i] = sketchreset.New(gossip.NodeID(i), scfg)
			}
			byzantine = applyAdversaries(s, agents)
			cfg.Agents = agents
		}
	}

	cfg.BeforeRound = populationHooks(s, pop, seed, reset)

	var audit *massAudit
	if s.Protocol != ProtoSketchReset {
		w0 := make([]float64, s.N)
		mv0 := make([]float64, s.N)
		for i := range w0 {
			w0[i] = 1
			mv0[i] = values[i]
		}
		audit = newMassAudit(lambda, w0, mv0, massOf)
		cfg.BeforeRound = append(cfg.BeforeRound, audit.before)
		cfg.AfterRound = append(cfg.AfterRound, audit.after)
	}

	trajectory := make([]float64, 0, s.Rounds)
	finalTruth := 0.0
	cfg.AfterRound = append(cfg.AfterRound, func(r int, e *gossip.Engine) {
		truth := groundTruth(s.Protocol, values, pop)
		finalTruth = truth
		trajectory = append(trajectory, meanRelErr(e, truth))
	})

	eng, err := gossip.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	for r := 0; r < s.Rounds; r++ {
		eng.Step()
	}

	rep := &Report{
		Scenario:   s.Name,
		Seed:       seed,
		Backend:    backendName(opts.Columnar),
		N:          s.N,
		Rounds:     s.Rounds,
		Protocol:   s.Protocol,
		Byzantine:  byzantine,
		FinalTruth: finalTruth,
		Trajectory: trajectory,
		Lost:       fe.deniedCounts(),
		Messages:   eng.Messages(),
		Damage:     damage(trajectory, s.recoveryTol()),
	}
	if audit != nil {
		rep.Audit = audit.report
	} else {
		rep.Audit = AuditReport{Applicable: false, FirstViolation: -1}
	}
	return rep, nil
}

func backendName(columnar bool) string {
	if columnar {
		return "columnar"
	}
	return "classic"
}

// recoveryTol returns the scenario's recovery threshold with the
// 0.05 default applied.
func (s Scenario) recoveryTol() float64 {
	if s.RecoveryTol > 0 {
		return s.RecoveryTol
	}
	return 0.05
}

// scenarioValues draws the deterministic per-host data values for a
// run: uniform in [1, 100) so relative error is always well-defined.
func scenarioValues(n int, seed uint64) []float64 {
	rng := xrand.New(seed ^ valueSeedSalt)
	values := make([]float64, n)
	for i := range values {
		values[i] = 1 + 99*rng.Float64()
	}
	return values
}

// groundTruth is the current true aggregate: the mean of the live
// hosts' values, or the live count for sketchreset.
func groundTruth(protocol string, values []float64, pop *env.Population) float64 {
	if protocol == ProtoSketchReset {
		return float64(pop.AliveCount())
	}
	sum := 0.0
	ids := pop.AliveIDs()
	for _, id := range ids {
		sum += values[id]
	}
	return sum / float64(len(ids))
}

// meanRelErr is the mean relative estimate error over live hosts this
// round; hosts without an estimate yet are skipped.
func meanRelErr(e *gossip.Engine, truth float64) float64 {
	sum, count := 0.0, 0
	n := e.Env().Size()
	for id := 0; id < n; id++ {
		est, ok := e.EstimateOf(gossip.NodeID(id))
		if !ok {
			continue
		}
		sum += math.Abs(est-truth) / math.Abs(truth)
		count++
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

// damage folds a trajectory into its DamageReport.
func damage(trajectory []float64, tol float64) DamageReport {
	d := DamageReport{RecoveryTol: tol, RecoveryRound: -1}
	for _, v := range trajectory {
		if v > d.MaxRelErr {
			d.MaxRelErr = v
		}
	}
	if len(trajectory) == 0 {
		return d
	}
	d.FinalRelErr = trajectory[len(trajectory)-1]
	for r := len(trajectory); r > 0; r-- {
		if trajectory[r-1] > tol {
			break
		}
		d.RecoveryRound = r - 1
	}
	return d
}
