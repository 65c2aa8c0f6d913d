// Command dynaggsim regenerates every figure of "Dynamic Approaches to
// In-Network Aggregation" (Kennedy, Koch, Demers, ICDE 2009) plus the
// ablations listed below, printing paper-style data tables to
// stdout (or CSV/JSON for plotting tools).
//
// Usage:
//
//	dynaggsim <mode> [flags]
//
// Experiments:
//
//	fig6   bit-counter distribution CDFs (Count-Sketch-Reset cutoff)
//	fig8   dynamic averaging, uncorrelated failures
//	fig9   dynamic counting under failure
//	fig10a dynamic averaging, correlated failures (basic)
//	fig10b dynamic averaging, correlated failures (full-transfer)
//	fig11avg  trace-driven dynamic average (use -dataset 1..3)
//	fig11sum  trace-driven dynamic size estimate (use -dataset 1..3)
//	ablation-pushpull | ablation-adaptive | ablation-bins |
//	ablation-epoch    | ablation-overlay  | ablation-moments |
//	ablation-extremes | ablation-gridcutoff | ablation-bandwidth |
//	ablation-mobility
//	all    run everything at the current scale
//
// Live engine (asynchronous, pluggable transport):
//
//	live   run a protocol on the live engine (-protocol pushsum|
//	       revert|sketchreset; pushsum is revert at λ = 0) over a
//	       transport (-transport chan|udp|tcp) on either population
//	       backend (-backend, below: the columnar one scales to a
//	       million live hosts), with optional injected loss
//	       (-loss 0.2) or a canned WAN preset (-wan lan|3g|sat:
//	       loss+delay+jitter à la netem; over tcp a loss draw kills
//	       the carrying connection instead of dropping a datagram),
//	       socket/shard group count (-udp-groups 4), UDP receive
//	       buffer (-rcvbuf bytes), wall-clock duty cycle (-pace 4ms),
//	       and tick count (-ticks 60). With -transport=tcp a
//	       process can join a multi-process cluster: -span lo:hi
//	       names the host range it drives, -listen its TCP address,
//	       and -seeds the shared seed list every process
//	       bootstraps its membership from (see
//	       live.Bootstrap and docs/deployments.md); -reannounce sets
//	       the keepalive heartbeat cadence and -replace announces with
//	       restart semantics (a supervised respawn taking over its dead
//	       predecessor's span). -format json prints the report as
//	       one JSON record line instead of the table: the form
//	       supervise reads from its members
//
// Self-healing cluster (failure detection + supervised takeover):
//
//	supervise  launch -members live cluster member processes (spans of
//	           [0,-n) split evenly), serve as their bootstrap seed, run
//	           the heartbeat failure detector (internal/gossip/live/
//	           health) over their keepalives, and restart members
//	           pronounced dead with -replace takeover — under a
//	           -restart-budget storm brake. -kill-after/-kill inject a
//	           chaos kill to demonstrate the heal; each heal's detect
//	           and recover latency is printed. See docs/operations.md
//
// Query gateway (HTTP front end over a live TCP cluster):
//
//	gateway  join a running -transport=tcp multi-protocol cluster as a
//	         zero-mass observer span and serve its converged estimates
//	         over HTTP/JSON (-seeds the cluster's seed list, -n the
//	         worker population size, -listen the observer's TCP bind,
//	         -listen-http the query API bind, -aggregates the initial
//	         names). Workers run `live -protocol=multi
//	         -observer-slots=1`. See docs/gateway-api.md.
//
// Chaos engine (seeded fault/adversary scenarios, see docs/scenarios.md):
//
//	chaos  run a chaos scenario on the round engine: composed faults
//	       (healing partitions, regional outages, churn storms, clock
//	       skew) and Byzantine adversaries (lying mass, replayed
//	       sketches, inflated sketch bits) against one protocol, with
//	       a per-round mass-conservation audit and damage scoring
//	       against ground truth. -scenario names a catalog entry
//	       (internal/chaos) or a scenario JSON file; -seed makes the
//	       whole run — and its Report — deterministic. -format json
//	       emits the machine-readable chaos.Report
//
// Engine benchmark (the ROADMAP's million-host target):
//
//	bench  raw gossip rounds of one protocol (-protocol pushsum|
//	       revert|sketchreset|extremes|moments; pushsum is revert at
//	       λ = 0, and a static count gossips exactly what sketchreset
//	       does, its cutoff being read-side only) under one model
//	       (-model push|pushpull) at -n hosts (default 1,000,000), on
//	       the classic or, with -backend=columnar, the struct-of-arrays
//	       engine path; reports ns/round, msgs/round, and peak RSS
//
// Trace tooling:
//
//	trace-gen   generate a synthetic contact trace (-dataset 1..3,
//	            -o file; interchange format, see package trace)
//	trace-info  summarize a trace file (-in file; reads the
//	            interchange format, or CRAWDAD contact tables with
//	            -contacts)
//
// Flags:
//
// Each mode has its own flag set and accepts only the flags it reads;
// `dynaggsim <mode> -h` lists them with that mode's defaults. Every
// mode takes -o FILE (output to FILE instead of stdout), -cpuprofile
// FILE and -memprofile FILE (a CPU profile of the run, an end-of-run
// heap profile). Every figure and ablation mode takes -seed S and
// -format F (table, csv or json); fig6 adds -full, fig11* -dataset D
// (trace dataset 1-3), ablation-gridcutoff -n as its grid side
// (default 28) and ablation-bandwidth -n as its host count (default
// 2000). The Scale-driven ones (fig8/9/10*, ablation-pushpull/adaptive/
// epoch/moments/extremes/mobility) and all add:
//
//	-full       paper-scale populations (100,000 hosts; slower)
//	-n N        host count (default 10,000, or 100,000 with -full)
//	-rounds R   round count (default 60)
//	-workers W  engine shards: 0 one shard, inline (default), -1 one
//	            per CPU, k>0 exactly k; results are byte-identical
//	            at any setting (bench and chaos take it too)
//	-backend B  population backend: agents (default; per-host boxed
//	            agents) or columnar (struct-of-arrays columns; every
//	            protocol but multi, both gossip models — push/pull runs
//	            each shard's exchanges as one pair batch); round-engine
//	            results are byte-identical, measured ~3x faster at N=1M
//	            (bench, chaos and live take it too)
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"time"

	"dynagg/internal/experiments"
	"dynagg/internal/gossip"
	"dynagg/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "dynaggsim:", err)
		os.Exit(1)
	}
}

// mode is one dynaggsim subcommand. flags registers on fs exactly the
// flags the mode reads, bound into its options with its defaults, and
// returns the step that runs it once fs is parsed. fig, set for figure
// and ablation modes only, is the experiment all runs on its own options.
type mode struct {
	name, summary string
	flags         func(fs *flag.FlagSet) func(out io.Writer) error
	fig           func(out io.Writer, o *figOpts) error
}

// modes is the CLI, in usage order; init fills it because all walks it.
var modes []mode

func init() {
	modes = []mode{
		{"fig6", "bit-counter distribution CDFs (Count-Sketch-Reset cutoff)", figFlags(fullFlag, runFig6), runFig6},
		scaled("fig8", "dynamic averaging, uncorrelated failures", experiments.Fig8),
		scaled("fig9", "dynamic counting under failure", experiments.Fig9),
		scaled("fig10a", "dynamic averaging, correlated failures (basic)", experiments.Fig10a),
		scaled("fig10b", "dynamic averaging, correlated failures (full-transfer)", experiments.Fig10b),
		figure("fig11avg", "trace-driven dynamic average", datasetFlag, func(o *figOpts) experiments.Result {
			return experiments.Fig11Avg(o.dataset, o.sc.Seed)
		}),
		figure("fig11sum", "trace-driven dynamic size estimate", datasetFlag, func(o *figOpts) experiments.Result {
			return experiments.Fig11Sum(o.dataset, o.sc.Seed)
		}),
		scaled("ablation-pushpull", "push vs push/pull convergence of static Push-Sum", experiments.AblationPushPull),
		scaled("ablation-adaptive", "fixed vs adaptive λ reversion, correlated failures", experiments.AblationAdaptive),
		figure("ablation-bins", "FM sketch error vs bin count", nil, func(o *figOpts) experiments.Result {
			return experiments.AblationBins(20, 20000, o.sc.Seed)
		}),
		scaled("ablation-epoch", "epoch length vs reversion, correlated failures", experiments.AblationEpoch),
		figure("ablation-overlay", "TAG spanning tree vs gossip under churn, 50x50 grid", nil, func(o *figOpts) experiments.Result {
			return experiments.AblationOverlay(50, o.sc.Seed)
		}),
		scaled("ablation-moments", "dynamic stddev (moments), correlated failures", experiments.AblationMoments),
		scaled("ablation-extremes", "dynamic max with age-out, correlated failures", experiments.AblationExtremes),
		figure("ablation-gridcutoff", "grid count vs sketch cutoff intercept", func(fs *flag.FlagSet, o *figOpts) {
			countVar(fs, &o.side, "n", o.side, "grid `side`")
		}, func(o *figOpts) experiments.Result { return experiments.AblationGridCutoff(o.side, o.sc.Seed) }),
		figure("ablation-bandwidth", "wire bytes per gossip message by protocol", func(fs *flag.FlagSet, o *figOpts) {
			countVar(fs, &o.hosts, "n", o.hosts, "host `count`")
		}, func(o *figOpts) experiments.Result { return experiments.AblationBandwidth(o.hosts, o.sc.Seed) }),
		scaled("ablation-mobility", "dynamic averaging under random-waypoint mobility", experiments.AblationMobility),
		{"all", "every figure and ablation above at one scale", figFlags(scaleFlags, runAll), nil},
		{"live", "a protocol on the live engine over chan, udp or tcp", liveFlags, nil},
		{"supervise", "a self-healing cluster of live member processes", superviseFlags, nil},
		{"gateway", "HTTP query gateway over a live tcp cluster", gatewayFlags, nil},
		{"chaos", "a seeded fault/adversary scenario on the round engine", chaosFlags, nil},
		{"bench", "raw gossip rounds of one protocol (default 1,000,000 hosts)", benchFlags, nil},
		{"trace-gen", "generate a synthetic contact trace", traceGenFlags, nil},
		{"trace-info", "summarize a contact trace file", traceInfoFlags, nil},
	}
}

func run(args []string) error {
	c, err := parse(args)
	if err != nil {
		return err
	}
	// Profiling wraps every mode, so the N=1M engine profile (or any
	// figure driver's) is one flag away.
	if c.cpuprofile != "" {
		f, err := os.Create(c.cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if c.memprofile != "" {
		defer func() {
			f, err := os.Create(c.memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dynaggsim: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the steady-state heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "dynaggsim: memprofile:", err)
			}
		}()
	}

	out := io.Writer(os.Stdout)
	if c.outPath != "" {
		f, err := os.Create(c.outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	return c.step(out)
}

// command is a parsed command line: the mode's step and the flags
// every mode takes.
type command struct {
	step                            func(out io.Writer) error
	outPath, cpuprofile, memprofile string
}

// parse resolves args[0] to a mode and parses the rest against the
// mode's flag set, doing none of the mode's work.
func parse(args []string) (*command, error) {
	if len(args) == 0 {
		usage()
		return nil, fmt.Errorf("missing experiment name")
	}
	i := slices.IndexFunc(modes, func(m mode) bool { return m.name == args[0] })
	if i < 0 {
		usage()
		return nil, fmt.Errorf("unknown experiment %q", args[0])
	}
	fs, c := flagSet(modes[i])
	if err := fs.Parse(args[1:]); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("%s: unexpected argument %q", fs.Name(), fs.Arg(0))
	}
	return c, nil
}

// flagSet builds m's flag set: the flags every mode takes, then m's.
func flagSet(m mode) (*flag.FlagSet, *command) {
	fs := flag.NewFlagSet(m.name, flag.ContinueOnError)
	c := new(command)
	fs.StringVar(&c.outPath, "o", "", "write output to this file instead of stdout")
	fs.StringVar(&c.cpuprofile, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&c.memprofile, "memprofile", "", "write a heap profile taken at the end of the run to this file")
	c.step = m.flags(fs)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: dynaggsim %s [flags]: %s\n", m.name, m.summary)
		fs.PrintDefaults()
	}
	return fs, c
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: dynaggsim <mode> [flags]; dynaggsim <mode> -h lists a mode's flags\nmodes:")
	for _, m := range modes {
		fmt.Fprintf(os.Stderr, "  %-20s %s\n", m.name, m.summary)
	}
}

// figOpts is what the figure and ablation experiments read. A mode
// binds to flags only the fields its experiment reads; all binds the
// Scale's and runs every experiment, the others at their defaults.
type figOpts struct {
	sc     experiments.Scale // -seed, -rounds, -workers, -backend
	full   bool
	n      int // Scale-driven -n; 0 keeps the scale's host count
	format string
	// The fixed-size experiments' own knobs: fig11's trace dataset,
	// ablation-gridcutoff's grid side, ablation-bandwidth's host count.
	dataset, side, hosts int
	all                  bool // run by all: fig6 leaves out its CDF dump
}

// figFlags registers the flags every figure and ablation mode reads
// (-seed, -format) plus extra's, and returns a step running run.
func figFlags(extra func(*flag.FlagSet, *figOpts), run func(io.Writer, *figOpts) error) func(*flag.FlagSet) func(io.Writer) error {
	return func(fs *flag.FlagSet) func(io.Writer) error {
		o := &figOpts{sc: experiments.Default(), dataset: 1, side: 28, hosts: 2000}
		fs.Uint64Var(&o.sc.Seed, "seed", o.sc.Seed, "PRNG seed")
		fs.StringVar(&o.format, "format", "table", "output format: table, csv, json")
		if extra != nil {
			extra(fs, o)
		}
		return func(out io.Writer) error { return run(out, o) }
	}
}

// figure is a figure or ablation mode whose experiment returns one
// result.
func figure(name, summary string, extra func(*flag.FlagSet, *figOpts), experiment func(*figOpts) experiments.Result) mode {
	run := func(out io.Writer, o *figOpts) error {
		return experiments.WriteResult(out, experiment(o), experiments.Format(o.format))
	}
	return mode{name, summary, figFlags(extra, run), run}
}

// scaled is a Scale-driven figure or ablation mode.
func scaled(name, summary string, experiment func(experiments.Scale) experiments.Result) mode {
	return figure(name, summary, scaleFlags, func(o *figOpts) experiments.Result {
		sc := o.sc
		if o.full {
			sc.N = experiments.Full().N
		}
		if o.n > 0 {
			sc.N = o.n
		}
		return experiment(sc)
	})
}

func fullFlag(fs *flag.FlagSet, o *figOpts) {
	fs.BoolVar(&o.full, "full", false, "paper-scale populations (100,000 hosts)")
}

func datasetFlag(fs *flag.FlagSet, o *figOpts) {
	fs.IntVar(&o.dataset, "dataset", o.dataset, "trace dataset 1-3")
}

func scaleFlags(fs *flag.FlagSet, o *figOpts) {
	fullFlag(fs, o)
	fs.IntVar(&o.n, "n", 0, "host count (0: 10,000, or 100,000 with -full)")
	countVar(fs, &o.sc.Rounds, "rounds", o.sc.Rounds, "round `count`")
	workersVar(fs, &o.sc.Workers, "engine shards: 0 one shard run inline, -1 one per CPU, k>0 exactly k (same results at any setting)")
	backendVar(fs, &o.sc.Columnar)
}

// runAll runs every figure and ablation mode, in table order, on o.
func runAll(out io.Writer, o *figOpts) error {
	o.all = true
	for _, m := range modes {
		if m.fig == nil {
			continue
		}
		if err := m.fig(out, o); err != nil {
			return err
		}
		if o.format == "table" {
			fmt.Fprintln(out)
		}
	}
	return nil
}

// runFig6 prints Figure 6's table; in table format the fitted cutoff
// follows as a comment line and, outside all, the per-bit CDFs.
func runFig6(out io.Writer, o *figOpts) error {
	opts := experiments.DefaultFig6()
	if o.full {
		opts = experiments.FullFig6()
	}
	opts.Seed = o.sc.Seed
	frs, table := experiments.Fig6(opts)
	if err := experiments.WriteResult(out, table, experiments.Format(o.format)); err != nil || o.format != "table" {
		return err
	}
	intercept, invSlope := experiments.FitCutoff(frs, 0.99)
	fmt.Fprintf(out, "# fitted cutoff: f(k) = %.1f + k/%.1f (paper: 7 + k/4)\n", intercept, invSlope)
	if !o.all {
		printFig6CDFs(out, frs)
	}
	return nil
}

// printFig6CDFs dumps the per-bit CDFs, one block per network size,
// matching the paper's three panels.
func printFig6CDFs(out io.Writer, frs []experiments.Fig6Result) {
	for _, fr := range frs {
		fmt.Fprintf(out, "\n# counter CDFs, %d nodes (value: P[counter<=value])\n", fr.Size)
		for k, cdf := range fr.PerBit {
			if cdf.Total() == 0 {
				continue
			}
			fmt.Fprintf(out, "bit %-2d", k)
			for _, p := range cdf.Points() {
				if p.Value > 12 {
					break
				}
				fmt.Fprintf(out, "\t%s", p.String())
			}
			fmt.Fprintln(out)
		}
	}
}

// count is an int flag that must be positive: a host, round, tick or
// group count of zero would run nothing, or divide by it.
type count int

func (c *count) String() string { return strconv.Itoa(int(*c)) }

func (c *count) Set(s string) error {
	v, err := strconv.Atoi(s)
	if err == nil && v <= 0 {
		err = errors.New("must be positive")
	}
	*c = count(v)
	return err
}

// countVar registers a count flag bound to p with the given default.
func countVar(fs *flag.FlagSet, p *int, name string, value int, usage string) {
	*p = value
	fs.Var((*count)(p), name, usage)
}

// workersVar registers -workers bound to p: k >= 0 as given, any
// negative count one per CPU.
func workersVar(fs *flag.FlagSet, p *int, usage string) {
	fs.Func("workers", usage, func(s string) error {
		k, err := strconv.Atoi(s)
		if k < 0 {
			k = gossip.DefaultWorkers()
		}
		*p = k
		return err
	})
}

// backendVar registers -backend bound to columnar: agents (the
// default) or columnar.
func backendVar(fs *flag.FlagSet, columnar *bool) {
	fs.Func("backend", "population backend: agents (default; per-host boxed agents) or columnar (dense struct-of-arrays columns; every protocol but multi, both gossip models; byte-identical round results, flat-loop speed)", func(s string) error {
		if s != "agents" && s != "columnar" {
			return fmt.Errorf("unknown backend %q (agents, columnar)", s)
		}
		*columnar = s == "columnar"
		return nil
	})
}

// traceGenFlags is trace-gen: write a synthetic contact trace in the
// interchange format.
func traceGenFlags(fs *flag.FlagSet) func(io.Writer) error {
	dataset := fs.Int("dataset", 1, "trace dataset 1-3")
	seed := fs.Uint64("seed", 1, "PRNG seed")
	n := fs.Int("n", 0, "device count (0 keeps the dataset's)")
	return func(out io.Writer) error {
		if *dataset < 1 || *dataset > 3 {
			return fmt.Errorf("trace-gen: -dataset must be 1..3, got %d", *dataset)
		}
		params := experiments.TraceDataset(*dataset)
		params.Seed = *seed
		if *n > 1 {
			params.N = *n
		}
		return trace.Write(out, trace.Generate(params))
	}
}

// traceInfoFlags is trace-info: summarize a trace file — device
// count, duration, event volume, and hourly connectivity statistics.
func traceInfoFlags(fs *flag.FlagSet) func(io.Writer) error {
	in := fs.String("in", "", "input trace file")
	contacts := fs.Bool("contacts", false, "parse -in as a CRAWDAD contact table")
	return func(out io.Writer) error {
		if *in == "" {
			return fmt.Errorf("trace-info: -in file required")
		}
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		var tr *trace.Trace
		if *contacts {
			tr, err = trace.ReadContacts(*in, f)
		} else {
			tr, err = trace.Read(f)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "name:     %s\n", tr.Name)
		fmt.Fprintf(out, "devices:  %d\n", tr.N)
		fmt.Fprintf(out, "duration: %v (%.1f hours)\n", tr.Duration, tr.Duration.Hours())
		fmt.Fprintf(out, "events:   %d\n", len(tr.Events))

		c := trace.NewCursor(tr)
		fmt.Fprintf(out, "%6s  %10s  %12s\n", "hour", "links up", "mean degree")
		hours := int(tr.Duration.Hours())
		for h := 0; h <= hours; h++ {
			c.AdvanceTo(time.Duration(h) * time.Hour)
			links := 0
			for d := 0; d < tr.N; d++ {
				links += c.Degree(d)
			}
			fmt.Fprintf(out, "%6d  %10d  %12.2f\n", h, links/2, float64(links)/float64(tr.N))
		}
		return nil
	}
}
