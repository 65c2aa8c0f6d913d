// Command dynaggsim regenerates every figure of "Dynamic Approaches to
// In-Network Aggregation" (Kennedy, Koch, Demers, ICDE 2009) plus the
// ablations listed in DESIGN.md, printing paper-style data tables to
// stdout (or CSV/JSON for plotting tools).
//
// Usage:
//
//	dynaggsim <experiment> [flags]
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
//	       revert|sketchreset) over a transport (-transport
//	       chan|udp|tcp) on either population backend (-backend
//	       agents|columnar: per-host goroutine-safe agents vs. the
//	       struct-of-arrays columns that scale to a million live
//	       hosts), with optional injected loss
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
//	       live.Bootstrap and examples/live_cluster); -reannounce sets
//	       the keepalive heartbeat cadence and -replace announces with
//	       restart semantics (a supervised respawn taking over its dead
//	       predecessor's span)
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
//	       revert|sketchreset|sketchcount|extremes|moments) under one
//	       model (-model push|pushpull) at -n hosts (default
//	       1,000,000), on the classic or, with -columnar, the
//	       struct-of-arrays engine path; reports ns/round, msgs/round,
//	       and peak RSS
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
//	-full       paper-scale populations (100,000 hosts; slower)
//	-n N        override host count
//	-rounds R   override round count
//	-seed S     PRNG seed
//	-workers W  engine shards: 0 one shard, inline (default), -1 one
//	            per CPU, k>0 exactly k; results are byte-identical
//	            at any setting. Applies to the Scale-driven experiments
//	            (fig8/9/10*, ablation-pushpull/adaptive/epoch/moments/
//	            extremes/mobility); the fixed-size drivers (fig6,
//	            fig11*, ablation-bins/overlay/gridcutoff/bandwidth)
//	            always run on one shard
//	-columnar   run the struct-of-arrays engine path (every protocol,
//	            both gossip models — push/pull runs the pair-batch
//	            wave executor); byte-identical results, measured ~3x
//	            faster at N=1M
//	-cpuprofile FILE  write a CPU profile of the run
//	-memprofile FILE  write an end-of-run heap profile
//	-dataset D  trace dataset 1-3 (fig11 experiments; default 1)
//	-format F   output format: table (default), csv, json
//	-o FILE     write output to FILE instead of stdout
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"dynagg/internal/experiments"
	"dynagg/internal/gossip"
	"dynagg/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dynaggsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing experiment name")
	}
	name := args[0]
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	full := fs.Bool("full", false, "paper-scale populations (100,000 hosts)")
	n := fs.Int("n", 0, "override host count")
	rounds := fs.Int("rounds", 0, "override round count")
	seed := fs.Uint64("seed", 1, "PRNG seed")
	workers := fs.Int("workers", 0, "engine shards for Scale-driven experiments: 0 one shard run inline, -1 one per CPU, k>0 exactly k (same results at any setting; fig6/fig11/bins/overlay/gridcutoff/bandwidth run on one shard regardless)")
	columnar := fs.Bool("columnar", false, "run the struct-of-arrays engine path (every protocol, both gossip models; byte-identical results, flat-loop speed)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile taken at the end of the run to this file")
	dataset := fs.Int("dataset", 1, "trace dataset 1-3")
	format := fs.String("format", "table", "output format: table, csv, json")
	outPath := fs.String("o", "", "write output to file instead of stdout")
	inPath := fs.String("in", "", "input trace file (trace-info)")
	contacts := fs.Bool("contacts", false, "parse -in as a CRAWDAD contact table")
	protocol := fs.String("protocol", "pushsum", "protocol for bench/live modes (bench: pushsum, revert, sketchreset, sketchcount, extremes, moments; live: pushsum, revert, sketchreset)")
	benchModel := fs.String("model", "push", "bench gossip model: push or pushpull")
	transportName := fs.String("transport", "chan", "live transport: chan (in-process channels), udp (wire-encoded loopback datagrams), or tcp (length-prefixed frames over cached connections)")
	loss := fs.Float64("loss", 0, "live per-message drop probability injected over the transport")
	wan := fs.String("wan", "", "live canned WAN preset layered over the transport: lan, 3g, or sat (loss+delay+jitter; mutually exclusive with -loss)")
	groups := fs.Int("udp-groups", 4, "live UDP/TCP loopback transports: host groups (= sockets/listeners)")
	pace := fs.Duration("pace", 0, "live tick duty cycle; 0 = free-running (sketchreset defaults to 4ms)")
	ticks := fs.Int("ticks", 0, "live ticks per host (default 60)")
	backend := fs.String("backend", "", "live population backend: agents (default; per-host boxed agents) or columnar (dense struct-of-arrays columns)")
	rcvbuf := fs.Int("rcvbuf", 0, "live UDP socket receive buffer in bytes; 0 = auto (4 MiB for the columnar backend)")
	seeds := fs.String("seeds", "", "live/gateway TCP bootstrap: comma-separated seed addresses shared by every process of the deployment (live: requires -span and -transport=tcp)")
	spanFlag := fs.String("span", "", "live TCP bootstrap: this process's host range lo:hi of the -n population (requires -seeds)")
	listen := fs.String("listen", "", "live/gateway TCP: listen address for this process's span; default 127.0.0.1:0 (a seed process must listen on its advertised seed address)")
	listenHTTP := fs.String("listen-http", "127.0.0.1:8080", "gateway: HTTP listen address for the query API")
	aggregates := fs.String("aggregates", "load", "live -protocol=multi / gateway: comma-separated aggregate names (hosts register gateway.DemoValue per name)")
	observerSlots := fs.Int("observer-slots", 0, "live cluster member: extra environment slots above -n reserved for observer spans (gateway processes); every process of a deployment must agree")
	scenario := fs.String("scenario", "", "chaos: catalog scenario name or path to a scenario JSON file (see internal/chaos and docs/scenarios.md)")
	replace := fs.Bool("replace", false, "live cluster member: announce with restart semantics — seeds update a stale registration of this span to our address instead of reporting a conflict (set by the supervisor on respawns)")
	reannounce := fs.Duration("reannounce", 0, "live cluster member: keepalive re-announce cadence, the failure detector's heartbeat (0 = 1s default)")
	membersN := fs.Int("members", 0, "supervise: member process count, spans split evenly (0 = 2)")
	heartbeat := fs.Duration("heartbeat", 0, "supervise: members' keepalive cadence and the failure detector's expected heartbeat (0 = 250ms)")
	killAfter := fs.Duration("kill-after", 0, "supervise: chaos injection — kill the -kill member this long into the run (0 = no kill)")
	killName := fs.String("kill", "", "supervise: member name to kill at -kill-after (\"\" = m0)")
	restartBudget := fs.Int("restart-budget", 0, "supervise: restarts allowed per member per minute before the run fails (0 = default 5)")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	// Loss injection only exists on the live path; catching the flags
	// here stops a silently ignored `bench -loss 0.2` from reading as a
	// loss measurement.
	if name != "live" && (*loss != 0 || *wan != "") {
		return fmt.Errorf("%s: -loss and -wan apply only to the live experiment", name)
	}
	if name != "live" && name != "gateway" && (*seeds != "" || *spanFlag != "" || *listen != "") {
		return fmt.Errorf("%s: -seeds, -span, and -listen apply only to the live and gateway modes", name)
	}
	if name != "live" && *observerSlots != 0 {
		return fmt.Errorf("%s: -observer-slots applies only to the live experiment", name)
	}
	if name != "chaos" && *scenario != "" {
		return fmt.Errorf("%s: -scenario applies only to the chaos mode", name)
	}
	if name != "live" && (*replace || *reannounce != 0) {
		return fmt.Errorf("%s: -replace and -reannounce apply only to the live experiment", name)
	}
	if name != "supervise" && (*membersN != 0 || *heartbeat != 0 || *killAfter != 0 || *killName != "" || *restartBudget != 0) {
		return fmt.Errorf("%s: -members, -heartbeat, -kill-after, -kill, and -restart-budget apply only to the supervise mode", name)
	}

	// Profiling wraps every mode, so the N=1M engine profile (or any
	// figure driver's) is one flag away.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
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
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	emit := func(r experiments.Result) error {
		return experiments.WriteResult(out, r, experiments.Format(*format))
	}

	sc := experiments.Default()
	if *full {
		sc = experiments.Full()
	}
	if *n > 0 {
		sc.N = *n
	}
	if *rounds > 0 {
		sc.Rounds = *rounds
	}
	sc.Seed = *seed
	sc.Columnar = *columnar
	switch {
	case *workers < 0:
		sc.Workers = gossip.DefaultWorkers()
	default:
		sc.Workers = *workers
	}

	switch name {
	case "trace-gen":
		return traceGen(out, *dataset, *seed, *n)
	case "trace-info":
		return traceInfo(out, *inPath, *contacts)
	case "bench":
		return runEngineBench(out, benchOpts{
			protocol: *protocol, model: *benchModel, n: *n, rounds: *rounds,
			workers: sc.Workers, columnar: *columnar, seed: *seed,
		})
	case "live":
		// -columnar selects the round engine's path; quietly running
		// the agents backend for someone who passed it here would be a
		// wrong answer, not a default.
		if *columnar {
			return fmt.Errorf("live: -columnar is a round-engine flag; use -backend=columnar")
		}
		return runLive(out, liveOpts{
			protocol: *protocol, backend: *backend, transport: *transportName,
			loss: *loss, wan: *wan, groups: *groups, pace: *pace, n: *n,
			ticks: *ticks, workers: sc.Workers, seed: *seed, rcvbuf: *rcvbuf,
			seeds: *seeds, span: *spanFlag, listen: *listen,
			aggregates: *aggregates, observerSlots: *observerSlots,
			replace: *replace, reannounce: *reannounce,
		})
	case "chaos":
		return runChaos(out, chaosOpts{
			scenario: *scenario, seed: *seed, columnar: *columnar,
			workers: sc.Workers, n: *n, rounds: *rounds, format: *format,
		})
	case "gateway":
		return runGateway(out, gatewayOpts{
			n: *n, seeds: *seeds, listen: *listen, listenHTTP: *listenHTTP,
			aggregates: *aggregates, pace: *pace, seed: *seed,
		})
	case "supervise":
		return runSupervise(out, superviseOpts{
			n: *n, members: *membersN, protocol: *protocol,
			ticks: *ticks, pace: *pace, heartbeat: *heartbeat,
			killAfter: *killAfter, killName: *killName,
			budget: *restartBudget, seed: *seed,
		})
	}

	switch name {
	case "fig6":
		opts := experiments.DefaultFig6()
		if *full {
			opts = experiments.FullFig6()
		}
		opts.Seed = *seed
		frs, table := experiments.Fig6(opts)
		if err := emit(table); err != nil {
			return err
		}
		intercept, invSlope := experiments.FitCutoff(frs, 0.99)
		fmt.Fprintf(out, "# fitted cutoff: f(k) = %.1f + k/%.1f (paper: 7 + k/4)\n", intercept, invSlope)
		printFig6CDFs(out, frs)
	case "fig8":
		return emit(experiments.Fig8(sc))
	case "fig9":
		return emit(experiments.Fig9(sc))
	case "fig10a":
		return emit(experiments.Fig10a(sc))
	case "fig10b":
		return emit(experiments.Fig10b(sc))
	case "fig11avg":
		return emit(experiments.Fig11Avg(*dataset, *seed))
	case "fig11sum":
		return emit(experiments.Fig11Sum(*dataset, *seed))
	case "ablation-pushpull":
		return emit(experiments.AblationPushPull(sc))
	case "ablation-adaptive":
		return emit(experiments.AblationAdaptive(sc))
	case "ablation-bins":
		return emit(experiments.AblationBins(20, 20000, *seed))
	case "ablation-epoch":
		return emit(experiments.AblationEpoch(sc))
	case "ablation-overlay":
		return emit(experiments.AblationOverlay(50, *seed))
	case "ablation-moments":
		return emit(experiments.AblationMoments(sc))
	case "ablation-extremes":
		return emit(experiments.AblationExtremes(sc))
	case "ablation-gridcutoff":
		side := 28
		if *n > 0 {
			side = *n
		}
		return emit(experiments.AblationGridCutoff(side, *seed))
	case "ablation-bandwidth":
		bn := 2000
		if *n > 0 {
			bn = *n
		}
		return emit(experiments.AblationBandwidth(bn, *seed))
	case "ablation-mobility":
		return emit(experiments.AblationMobility(sc))
	case "all":
		return runAll(out, sc, *full, *seed)
	default:
		usage()
		return fmt.Errorf("unknown experiment %q", name)
	}
	return nil
}

// traceGen writes a synthetic contact trace in the interchange format.
func traceGen(out io.Writer, dataset int, seed uint64, n int) error {
	if dataset < 1 || dataset > 3 {
		return fmt.Errorf("trace-gen: -dataset must be 1..3, got %d", dataset)
	}
	params := experiments.TraceDataset(dataset)
	params.Seed = seed
	if n > 1 {
		params.N = n
	}
	return trace.Write(out, trace.Generate(params))
}

// traceInfo summarizes a trace file: device count, duration, event
// volume, and hourly connectivity statistics.
func traceInfo(out io.Writer, path string, contacts bool) error {
	if path == "" {
		return fmt.Errorf("trace-info: -in file required")
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var tr *trace.Trace
	if contacts {
		tr, err = trace.ReadContacts(path, f)
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

func runAll(out io.Writer, sc experiments.Scale, full bool, seed uint64) error {
	opts := experiments.DefaultFig6()
	if full {
		opts = experiments.FullFig6()
	}
	opts.Seed = seed
	frs, table := experiments.Fig6(opts)
	experiments.PrintResult(out, table)
	intercept, invSlope := experiments.FitCutoff(frs, 0.99)
	fmt.Fprintf(out, "# fitted cutoff: f(k) = %.1f + k/%.1f (paper: 7 + k/4)\n\n", intercept, invSlope)

	for _, r := range []experiments.Result{
		experiments.Fig8(sc),
		experiments.Fig9(sc),
		experiments.Fig10a(sc),
		experiments.Fig10b(sc),
		experiments.Fig11Avg(1, seed),
		experiments.Fig11Sum(1, seed),
		experiments.AblationPushPull(sc),
		experiments.AblationAdaptive(sc),
		experiments.AblationBins(20, 20000, seed),
		experiments.AblationEpoch(sc),
		experiments.AblationOverlay(50, seed),
		experiments.AblationMoments(sc),
		experiments.AblationExtremes(sc),
		experiments.AblationGridCutoff(28, seed),
		experiments.AblationBandwidth(2000, seed),
		experiments.AblationMobility(sc),
	} {
		experiments.PrintResult(out, r)
		fmt.Fprintln(out)
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

func usage() {
	fmt.Fprintln(os.Stderr, `usage: dynaggsim <experiment> [-full] [-n N] [-rounds R] [-seed S] [-workers W] [-columnar]
                          [-dataset D] [-format table|csv|json] [-o FILE]
                          [-cpuprofile FILE] [-memprofile FILE]
experiments: fig6 fig8 fig9 fig10a fig10b fig11avg fig11sum
             ablation-pushpull ablation-adaptive ablation-bins
             ablation-epoch ablation-overlay ablation-moments
             ablation-extremes ablation-gridcutoff ablation-bandwidth
             ablation-mobility all
engine bench: bench [-protocol pushsum|revert|sketchreset|sketchcount|extremes|moments]
             [-model push|pushpull] [-columnar]
             [-n N (default 1,000,000)] [-rounds R] [-workers W] [-seed S]
live engine: live [-protocol pushsum|revert|sketchreset|multi]
             [-backend agents|columnar]
             [-transport chan|udp|tcp] [-loss P | -wan lan|3g|sat]
             [-udp-groups G] [-rcvbuf BYTES] [-pace DUR] [-ticks T]
             [-n N] [-workers W] [-seed S]
             [-cpuprofile FILE] [-memprofile FILE]
             [-span LO:HI -seeds ADDRS [-listen ADDR]]  (tcp cluster member)
             [-replace] [-reannounce DUR]               (supervised member)
             [-aggregates NAMES] [-observer-slots K]    (multi protocol)
gateway:     gateway -seeds ADDRS [-n N] [-listen ADDR]
             [-listen-http ADDR] [-aggregates NAMES] [-pace DUR] [-seed S]
supervise:   supervise [-n N] [-members M] [-protocol P] [-ticks T]
             [-pace DUR] [-heartbeat DUR] [-kill-after DUR] [-kill NAME]
             [-restart-budget B] [-seed S]
chaos:       chaos -scenario NAME|FILE [-seed S] [-columnar] [-workers W]
             [-n N] [-rounds R] [-format table|json]
trace tools: trace-gen [-dataset D] [-o FILE]
             trace-info -in FILE [-contacts]`)
}
