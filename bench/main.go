// Command bench is the repository's one benchmark: five named
// workloads over the whole message path (protocol kernel → wire codec →
// batch/frame → transport → live tick → observer → HTTP), each printing
// the end-to-end metrics of BENCHMARK.json on an untraced run and the
// per-layer metrics on a traced one. See README.md beside this file.
//
// It is a module of its own (dynagg/bench) so that the root module's
// build and tests do not depend on it; it measures every layer from
// outside, through exported functions and forwarding decorators.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// workload is one named benchmark: run measures for about the given
// time and fills the report.
type workload struct {
	name string
	run  func(rc runConfig, rep *report)
}

func workloads() []workload {
	return []workload{
		{"round-columnar", runRoundColumnar},
		{"round-figures", runRoundFigures},
		{"live-batch", runLiveBatch},
		{"cluster-gossip", runClusterGossip},
		{"gateway-read", runGatewayRead},
	}
}

// runConfig is what one run is told: everything else (host values,
// departure sets, request mixes, names) is generated from Seed.
type runConfig struct {
	Seed    uint64
	Seconds float64
	Trace   bool
	Sizes   sizes
	// TraceOut receives the span dump of a traced run ("" keeps the
	// spans in memory only).
	TraceOut string
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: round-columnar, round-figures, live-batch, cluster-gossip, gateway-read")
		seed     = flag.Uint64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Float64("seconds", 15, "how long the run measures")
		traceOn  = flag.Int("trace", 0, "1 runs the workload with the span-recording decorators and prints the per-layer metrics")
		out      = flag.String("o", "", "append the stamped result (one JSON object per line) to this file")
		traceOut = flag.String("trace-out", "", "write the traced run's spans to this file as JSON")
		compare  = flag.Bool("compare", false, "compare two result sets: bench -compare A.jsonl B.jsonl")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: bench -compare A.jsonl B.jsonl")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	spec, err := loadSpec()
	if err != nil {
		fatalf("%v", err)
	}
	var wl *workload
	for _, w := range workloads() {
		if w.name == *name {
			wl = &w
			break
		}
	}
	if wl == nil {
		fatalf("unknown -workload %q", *name)
	}
	if *seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	// One process, at most four cores: the sizing in README.md assumes
	// it, and a bigger box must not silently change the regime.
	procs := runtime.NumCPU()
	if procs > 4 {
		procs = 4
	}
	runtime.GOMAXPROCS(procs)

	rc := runConfig{Seed: *seed, Seconds: *seconds, Trace: *traceOn != 0, Sizes: fullSizes(), TraceOut: *traceOut}
	rep := newReport(spec, rc.Trace)
	start := time.Now()
	wl.run(rc, rep)
	rep.finish()

	res := rep.result()
	if missing := rep.missing(); len(missing) > 0 {
		fatalf("workload %s did not report: %v", wl.name, missing)
	}
	stamped := stampedResult{
		Stamp:    newStamp(wl.name, rc, time.Since(start)),
		Result:   res,
		Notes:    rep.notes,
		Failures: rep.failures,
	}
	if *out != "" {
		if err := appendJSONLine(*out, stamped); err != nil {
			fatalf("%v", err)
		}
	}
	printTable(os.Stdout, stamped)
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// printTable renders the run for a reader; the machine-readable line
// follows it as the last line of standard output.
func printTable(w io.Writer, s stampedResult) {
	fmt.Fprintf(w, "# %s seed=%d seconds=%g trace=%v rev=%s %s %s nproc=%d GOMAXPROCS=%d wall=%.1fs\n",
		s.Stamp.Workload, s.Stamp.Seed, s.Stamp.Seconds, s.Stamp.Trace, s.Stamp.GitRev,
		s.Stamp.GoVersion, s.Stamp.CPUModel, s.Stamp.NumCPU, s.Stamp.GOMAXPROCS, s.Stamp.WallSeconds)
	names := make([]string, 0, len(s.Result.Metrics))
	for n := range s.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := s.Result.Metrics[n]
		fmt.Fprintf(w, "%-44s %16.6g %s\n", n, m.Value, m.Unit)
	}
	for _, n := range s.Notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, f := range s.Failures {
		fmt.Fprintf(w, "# FAILED: %s\n", f)
	}
	fmt.Fprintf(w, "# checks: %d attempted, %d failed\n", s.Result.Attempted, s.Result.Failed)
}

func appendJSONLine(path string, v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
