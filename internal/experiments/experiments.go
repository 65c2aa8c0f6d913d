// Package experiments contains one driver per figure of the paper's
// evaluation (§V) plus the ablations listed in dynaggsim's usage
// (cmd/dynaggsim). Each driver builds the workload, runs the
// simulation, and returns labelled data series shaped like the paper's
// plots; PrintResult renders them as a column table (x, then one column
// per series) that can be piped into any plotting tool.
//
// Sizes default to a laptop-scale 10,000 hosts so the full suite runs
// in minutes; pass Full to restore the paper's 100,000.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"dynagg/internal/stats"
)

// Result is the output of one experiment: a set of series sharing an
// x axis, plus free-form notes (measured headline numbers, cutoff
// fits, substitutions).
type Result struct {
	Name   string
	XLabel string
	YLabel string
	Series []stats.Series
	Notes  []string
}

// Notef appends a formatted note.
func (r *Result) Notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// PrintResult renders the result as a whitespace-aligned column table.
func PrintResult(w io.Writer, r Result) {
	fmt.Fprintf(w, "# %s\n", r.Name)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	if len(r.Series) == 0 {
		return
	}
	y := func(v float64) string { return fmt.Sprintf("%.4f", v) }
	for _, row := range rows(r, trimFloat, y, "-") {
		fmt.Fprintln(w, strings.Join(row, "\t"))
	}
}

func trimFloat(x float64) string {
	s := fmt.Sprintf("%.3f", x)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}

// Scale selects experiment sizing.
type Scale struct {
	// N is the host population for uniform-gossip experiments.
	N int
	// Rounds is the simulated round count.
	Rounds int
	// FailAt is the round at which the failure wave strikes.
	FailAt int
	// Seed drives all randomness.
	Seed uint64
	// Workers is the engine's shard count: 0 and 1 run the round inline
	// on one shard, k > 1 on k goroutines (byte-identical results
	// either way; see gossip.Config.Workers).
	Workers int
	// Columnar selects the struct-of-arrays execution path
	// (gossip.Config.Columnar) — byte-identical results, flat-loop
	// speed. Every protocol a figure or ablation driver runs has a
	// columnar form (only multi and sketchcount, which none runs, have
	// not) and both gossip models run on the columnar engine (push/pull
	// through the pair-batch ColExchanger executor), so all Scale-driven
	// figure and ablation drivers honor the flag.
	Columnar bool
}

// Default is the laptop-scale sizing: 10,000 hosts.
func Default() Scale { return Scale{N: 10000, Rounds: 60, FailAt: 20, Seed: 1} }

// Full is the paper's sizing: 100,000 hosts.
func Full() Scale { return Scale{N: 100000, Rounds: 60, FailAt: 20, Seed: 1} }

// PaperLambdas are the reversion constants swept in Figures 8 and 10.
var PaperLambdas = []float64{0, 0.001, 0.01, 0.1, 0.5}

// TraceLambdas are the constants swept in Figure 11's averaging
// column.
var TraceLambdas = []float64{0, 0.001, 0.01}
