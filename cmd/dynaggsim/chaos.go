package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dynagg/internal/chaos"
)

// chaosOpts carries the chaos-mode flags.
type chaosOpts struct {
	scenario string // catalog name or path to a scenario JSON file
	seed     uint64
	run      chaos.RunOpts // -backend, -workers
	n        int           // override Scenario.N when > 0
	rounds   int           // override Scenario.Rounds when > 0
	format   string        // "table" (human summary) or "json" (full Report)
}

func chaosFlags(fs *flag.FlagSet) func(io.Writer) error {
	var o chaosOpts
	fs.StringVar(&o.scenario, "scenario", "", "catalog scenario name or path to a scenario JSON file (see internal/chaos and docs/scenarios.md)")
	fs.Uint64Var(&o.seed, "seed", 1, "PRNG seed; the whole run and its report are a function of it")
	backendVar(fs, &o.run.Columnar)
	workersVar(fs, &o.run.Workers, "engine shards: 0 one shard run inline, -1 one per CPU, k>0 exactly k")
	fs.IntVar(&o.n, "n", 0, "host count (0 keeps the scenario's)")
	fs.IntVar(&o.rounds, "rounds", 0, "round count (0 keeps the scenario's)")
	fs.StringVar(&o.format, "format", "table", "output format: table (summary) or json (the full report)")
	return func(out io.Writer) error { return runChaos(out, o) }
}

// runChaos resolves a scenario (catalog name first, then file path),
// runs it on the round engine, and reports the outcome.
func runChaos(out io.Writer, o chaosOpts) error {
	if o.scenario == "" {
		return fmt.Errorf("chaos: -scenario is required (one of: %s; or a scenario JSON file)",
			strings.Join(chaos.Names(), " "))
	}
	s, err := resolveScenario(o.scenario)
	if err != nil {
		return err
	}
	if o.n > 0 {
		s.N = o.n
	}
	if o.rounds > 0 {
		s.Rounds = o.rounds
	}

	rep, err := chaos.RunWith(s, o.seed, o.run)
	if err != nil {
		return err
	}

	switch o.format {
	case "json":
		data, err := rep.JSON()
		if err != nil {
			return err
		}
		if _, err := out.Write(append(data, '\n')); err != nil {
			return err
		}
	case "table":
		printChaosSummary(out, s, rep)
	default:
		return fmt.Errorf("chaos: -format must be table or json, got %q", o.format)
	}
	return nil
}

// resolveScenario maps -scenario to a Scenario: a catalog name wins,
// anything else is read as a JSON scenario file.
func resolveScenario(name string) (chaos.Scenario, error) {
	if s, ok := chaos.ByName(name); ok {
		return s, nil
	}
	data, err := os.ReadFile(name)
	if err != nil {
		return chaos.Scenario{}, fmt.Errorf("chaos: %q is neither a catalog scenario (%s) nor a readable file: %v",
			name, strings.Join(chaos.Names(), " "), err)
	}
	s, err := chaos.Decode(data)
	if err != nil {
		return chaos.Scenario{}, fmt.Errorf("chaos: %s: %v", name, err)
	}
	return s, nil
}

// printChaosSummary renders the human-facing view of a Report: what
// was injected, what it cost, and the two verdicts (estimator damage
// vs ground truth, mass-conservation audit).
func printChaosSummary(out io.Writer, s chaos.Scenario, rep *chaos.Report) {
	fmt.Fprintf(out, "scenario %s  backend %s  protocol %s  n %d  rounds %d  seed %d\n",
		rep.Scenario, rep.Backend, rep.Protocol, rep.N, rep.Rounds, rep.Seed)
	if rep.Byzantine > 0 {
		fmt.Fprintf(out, "byzantine hosts: %d\n", rep.Byzantine)
	}
	for _, l := range rep.Lost {
		fmt.Fprintf(out, "fault %-12s blocked contacts %d\n", l.Kind, l.Count)
	}
	fmt.Fprintf(out, "messages %d  final truth %.4f\n", rep.Messages, rep.FinalTruth)
	fmt.Fprintf(out, "damage: max rel err %.4g  final rel err %.4g  recovery round %s (tol %g)\n",
		rep.Damage.MaxRelErr, rep.Damage.FinalRelErr,
		recoveryString(rep.Damage.RecoveryRound), rep.Damage.RecoveryTol)
	// A crash-restart fault also reports how many rounds past the
	// restart the population needed to reabsorb the reset span — the
	// round-engine twin of supervise's recover latency (-1: never).
	for _, f := range s.Faults {
		if f.Kind != chaos.FaultCrashRestart {
			continue
		}
		rec := -1
		if rep.Damage.RecoveryRound >= 0 {
			rec = max(rep.Damage.RecoveryRound-f.End, 0)
		}
		fmt.Fprintf(out, "fault %-12s recovery rounds after restart %d\n", f.Kind, rec)
	}
	if !rep.Audit.Applicable {
		fmt.Fprintf(out, "audit: not applicable (no mass semantics for %s)\n", rep.Protocol)
	} else if rep.Audit.Violations == 0 {
		fmt.Fprintf(out, "audit: clean — mass conserved every round (max drift %.3g, tol %g)\n",
			rep.Audit.MaxDrift, rep.Audit.Tolerance)
	} else {
		fmt.Fprintf(out, "audit: FLAGGED — %d rounds violated conservation, first at round %d (max drift %.3g, tol %g)\n",
			rep.Audit.Violations, rep.Audit.FirstViolation, rep.Audit.MaxDrift, rep.Audit.Tolerance)
	}
	// The error trajectory, decimated to at most 16 sample rounds so
	// the shape (fault impact, recovery) reads at a glance.
	step := (len(rep.Trajectory) + 15) / 16
	if step < 1 {
		step = 1
	}
	samples := make([]string, 0, 16)
	for r := 0; r < len(rep.Trajectory); r += step {
		samples = append(samples, fmt.Sprintf("%d:%.3g", r, rep.Trajectory[r]))
	}
	fmt.Fprintf(out, "trajectory (round:err): %s\n", strings.Join(samples, " "))
}

func recoveryString(round int) string {
	if round < 0 {
		return "never"
	}
	return fmt.Sprintf("%d", round)
}
