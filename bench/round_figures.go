package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"strings"
	"time"

	"dynagg/internal/env"
	"dynagg/internal/experiments"
	"dynagg/internal/gossip"
	"dynagg/internal/protocol/extremes"
	"dynagg/internal/protocol/pushsumrevert"
	"dynagg/internal/protocol/sketchcount"
	"dynagg/internal/protocol/sketchreset"
	"dynagg/internal/sketch"
	"dynagg/internal/xrand"
)

// figure is one driver of the researcher's job ("regenerate the
// paper's plots"). Drivers with a columnar form run once per backend.
type figure struct {
	name     string
	columnar bool
	run      func(sz sizes, seed uint64, columnar bool) experiments.Result
}

// figureNames lists every driver, for the per-driver metric names.
var figureNames = []string{"fig8", "fig10b", "pushpull", "fig9", "extremes", "fig11sum"}

func figures(sz sizes) []figure {
	scale := func(sz sizes, n int, seed uint64, col bool) experiments.Scale {
		return experiments.Scale{N: n, Rounds: sz.FigRounds, FailAt: sz.FigFailAt, Seed: seed, Columnar: col}
	}
	figs := []figure{
		{"fig8", true, func(sz sizes, seed uint64, col bool) experiments.Result {
			return experiments.Fig8(scale(sz, sz.FigN, seed, col))
		}},
		{"fig10b", true, func(sz sizes, seed uint64, col bool) experiments.Result {
			return experiments.Fig10b(scale(sz, sz.FigN, seed, col))
		}},
		{"pushpull", true, func(sz sizes, seed uint64, col bool) experiments.Result {
			return experiments.AblationPushPull(scale(sz, sz.FigN, seed, col))
		}},
		{"fig9", true, func(sz sizes, seed uint64, col bool) experiments.Result {
			return experiments.Fig9(scale(sz, sz.Fig9N, seed, col))
		}},
		{"extremes", true, func(sz sizes, seed uint64, col bool) experiments.Result {
			return experiments.AblationExtremes(scale(sz, sz.ExtremesN, seed, col))
		}},
	}
	if sz.Fig11Dataset > 0 {
		// The trace driver has no columnar form and no size knob (a
		// dataset is a fixed trace); it runs once, with the classic
		// backend's figures. Dataset 0 leaves it out (toy sizes).
		figs = append(figs, figure{"fig11sum", false, func(sz sizes, seed uint64, _ bool) experiments.Result {
			return experiments.Fig11Sum(sz.Fig11Dataset, seed)
		}})
	}
	return figs
}

// figRun is one driver call: which, on which backend, how long, and
// the SHA-256 of its printed result.
type figRun struct {
	fig      string
	columnar bool
	seconds  float64
	sum      string
}

// figuresPass regenerates every figure on both backends.
func figuresPass(sz sizes, seed uint64, tr *tracer, phase int32) []figRun {
	var out []figRun
	for _, col := range []bool{false, true} {
		for _, f := range figures(sz) {
			if col && !f.columnar {
				continue
			}
			id := tr.open("experiments."+f.name, phase)
			t := time.Now()
			res := f.run(sz, seed, col)
			dt := time.Since(t)
			tr.close(id)
			var buf bytes.Buffer
			if err := experiments.WriteResult(&buf, res, experiments.FormatTable); err != nil {
				panic(err) // FormatTable cannot fail
			}
			sum := sha256.Sum256(buf.Bytes())
			out = append(out, figRun{f.name, col, dt.Seconds(), hex.EncodeToString(sum[:])})
		}
	}
	return out
}

// toyOf shrinks the figure sizes for the warm-up pass that stands for
// this workload's set-up: every driver and both backends run once, so
// lazy initialisation and first-touch page faults are paid before the
// measured passes.
func toyOf(sz sizes) sizes {
	sz.FigN = max(sz.FigN/20, 64)
	sz.Fig9N = max(sz.Fig9N/20, 64)
	sz.ExtremesN = max(sz.ExtremesN/20, 64)
	return sz
}

func runRoundFigures(rc runConfig, rep *report) {
	sz := rc.Sizes
	budget := time.Duration(rc.Seconds * float64(time.Second))
	for i := 0; i < 3; i++ {
		t := time.Now()
		figuresPass(toyOf(sz), rc.Seed, nil, 0)
		rep.setup(time.Since(t))
	}

	var tr *tracer
	var run, phase int32
	if rc.Trace {
		tr = newTracer("round-figures")
		run = tr.open("run", 0)
		phase = tr.open("phase.passes", run)
	}
	golden := loadFiguresGolden()[rc.Seed]
	times := map[string][]float64{} // "fig8/classic" → seconds per pass
	var tracedPass, plainPass, cpuPerFig []float64
	var tracedWall time.Duration
	var keys []string
	start := time.Now()
	for pass := 0; ; pass++ {
		// Every other pass of a traced run records no spans; the ratio
		// of the two kinds is the tracing overhead.
		ptr := tr
		if pass%2 == 1 {
			ptr = nil
		}
		runtime.GC()
		cpu0 := cpuTime()
		t := time.Now()
		runs := figuresPass(sz, rc.Seed, ptr, phase)
		cpu := cpuTime() - cpu0
		rep.markRSS()
		if ptr != nil {
			tracedWall += time.Since(t)
		}
		var total float64
		sums := map[string]string{}
		for _, r := range runs {
			key := r.fig + "/classic"
			if r.columnar {
				key = r.fig + "/columnar"
				rep.check(sums[r.fig] == r.sum, "round-figures: %s differs between the classic and the columnar backend", r.fig)
			} else {
				sums[r.fig] = r.sum
				if want, ok := golden[r.fig]; ok && sz.Name == "full" {
					rep.check(want == r.sum, "round-figures: %s output %s differs from testdata/round_figures_golden.json %s", r.fig, r.sum[:12], want[:12])
				}
			}
			if pass == 0 {
				keys = append(keys, key)
			}
			times[key] = append(times[key], r.seconds)
			total += r.seconds
		}
		if ptr != nil {
			tracedPass = append(tracedPass, total)
		} else {
			plainPass = append(plainPass, total)
		}
		cpuPerFig = append(cpuPerFig, float64(cpu.Nanoseconds())/1e3/float64(len(runs)))
		if pass == 0 {
			// What testdata/round_figures_golden.json holds for this seed.
			rep.notef("round-figures: output sums %v", sums)
		}
		// Stop when another pass of the usual length would overshoot.
		if elapsed := time.Since(start); elapsed+elapsed/time.Duration(pass+1) > budget+budget/10 {
			break
		}
	}
	tr.close(phase)
	tr.close(run)

	// One pass of the job, built from each driver's quiet time (see
	// quiet): the drivers are deterministic, so their times differ pass
	// to pass only by what else the box was doing.
	var job, classic, columnar float64
	perFig := map[string]float64{}
	for _, k := range keys {
		q := quiet(times[k])
		job += q
		fig, backend, _ := strings.Cut(k, "/")
		perFig[fig] += q
		if backend == "classic" {
			classic += q
		} else {
			columnar += q
		}
	}
	rep.notef("round-figures: %d passes of %d driver runs; one quiet pass %.3fs (classic %.3fs, columnar %.3fs)",
		len(times[keys[0]]), len(keys), job, classic, columnar)
	rep.set("latency_ms", job*1e3)
	rep.set("ops_per_s", float64(len(keys))/job)
	rep.set("cpu_us_per_op", quiet(cpuPerFig))

	if !rc.Trace {
		return
	}
	rep.set("experiments.run_s", job)
	rep.set("experiments.classic_s", classic)
	rep.set("experiments.columnar_s", columnar)
	for _, name := range figureNames {
		rep.set("experiments."+name+"_s", perFig[name]) // 0 for a driver the sizes leave out
	}
	if len(plainPass) > 0 {
		rep.set("bench.trace_overhead_ratio", quiet(tracedPass)/quiet(plainPass))
	} else {
		rep.set("bench.trace_overhead_ratio", 1)
	}
	rep.set("bench.trace_coverage_ratio", tr.coverage(tracedWall))
	classicSideRuns(rep, rc.Seed, sz, tr)
	if err := tr.write(rc.TraceOut); err != nil {
		rep.check(false, "writing trace: %v", err)
	}
}

// classicSideRuns times the per-host Node arithmetic the figure
// drivers spend their classic half in — the code ROADMAP item 1 wants
// to delete — one push-model engine per protocol, every agent behind
// a decorator.
func classicSideRuns(rep *report, seed uint64, sz sizes, tr *tracer) {
	n := sz.ClassicSideN
	rng := xrand.NewStream(seed, 0xc1a5)
	values := make([]float64, n)
	for i := range values {
		values[i] = rng.Float64() * 100
	}
	protos := []struct {
		name string
		make func(id gossip.NodeID) gossip.Agent
	}{
		{"revert", func(id gossip.NodeID) gossip.Agent {
			return pushsumrevert.New(id, values[id], pushsumrevert.Config{Lambda: sz.Lambda})
		}},
		{"sketchreset", func(id gossip.NodeID) gossip.Agent {
			return sketchreset.New(id, sketchreset.Config{Params: sketch.DefaultParams, Identifiers: 1})
		}},
		{"sketchcount", func(id gossip.NodeID) gossip.Agent { return sketchcount.NewCount(id, sketch.DefaultParams) }},
		{"extremes", func(id gossip.NodeID) gossip.Agent {
			return extremes.New(id, values[id], extremes.Config{Mode: extremes.Max, Cutoff: 20})
		}},
	}
	for _, p := range protos {
		agents := make([]gossip.Agent, n)
		for i := range agents {
			agents[i] = p.make(gossip.NodeID(i))
		}
		clocks := &agentClocks{}
		e, err := gossip.NewEngine(gossip.Config{
			Env: env.NewUniform(n), Agents: decorateAgents(agents, 0, clocks), Model: gossip.Push, Seed: seed,
		})
		if err != nil {
			panic(err)
		}
		e.Step() // round 0 sizes the engine's arena
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		id := tr.open("protocol."+p.name+".siderun", 0)
		e.Run(sz.ClassicSideRnds)
		tr.close(id)
		runtime.ReadMemStats(&ms1)
		rep.set("protocol."+p.name+".emit_ns_per_host", clocks.emit.perUnit())
		rep.set("protocol."+p.name+".receive_ns_per_msg", clocks.receive.perUnit())
		rep.set("protocol."+p.name+".end_ns_per_host", clocks.end.perUnit())
		if p.name == "revert" {
			rep.set("gossip.classic_allocs_per_host_round",
				float64(ms1.Mallocs-ms0.Mallocs)/float64(n*sz.ClassicSideRnds))
		}
		_, ok := e.EstimateOf(0)
		rep.check(ok, "round-figures: classic %s side run produced no estimate", p.name)
	}
}
