package main

import (
	"math"
	"runtime"
	"time"

	"dynagg/internal/env"
	"dynagg/internal/failure"
	"dynagg/internal/gossip"
	"dynagg/internal/metrics"
	"dynagg/internal/protocol/pushsumrevert"
	"dynagg/internal/xrand"
)

// colInputs is everything round-columnar and live-batch derive from
// the seed: the host values and the hosts whose estimates are read.
type colInputs struct {
	seed   uint64
	values []float64
	sample []gossip.NodeID
}

func genColInputs(seed uint64, n, sampleHosts int) *colInputs {
	rng := xrand.NewStream(seed, 0xc01)
	in := &colInputs{seed: seed, values: make([]float64, n)}
	for i := range in.values {
		in.values[i] = rng.Float64() * 100
	}
	if sampleHosts > n {
		sampleHosts = n
	}
	in.sample = make([]gossip.NodeID, sampleHosts)
	for i, id := range rng.Sample(make([]int, sampleHosts), n) {
		in.sample[i] = gossip.NodeID(id)
	}
	return in
}

// sampleError is the mean relative error of the sampled live hosts'
// estimates against truth.
func sampleError(sample []gossip.NodeID, truth float64, est func(gossip.NodeID) (float64, bool)) float64 {
	var sum float64
	n := 0
	for _, id := range sample {
		if v, ok := est(id); ok {
			sum += math.Abs(v-truth) / math.Abs(truth)
			n++
		}
	}
	if n == 0 {
		return math.Inf(1)
	}
	return sum / float64(n)
}

// colEpisode is one cold start → converge → correlated departure →
// recover pass of the round engine.
type colEpisode struct {
	setup         time.Duration
	stepTotal     time.Duration
	pre, post     []float64 // seconds per round before / from the departure
	cpu           time.Duration
	preHosts      int64 // host-rounds in pre; the rest of hostRounds is post
	hostRounds    int64
	msgs          int64
	contacts      int64
	convergeRound int // -1: never
	recoverRound  int // rounds after the departure; -1: never
	converge      time.Duration
	recover       time.Duration
	finalErr      float64
	mallocs       uint64
	heapPerHost   float64
	estimates     []float64 // sampled hosts' final estimates (transparency tests)

	dec *colDecor
}

// runColEpisode builds a fresh engine (that is the set-up sample) and
// steps it through one episode. With tr non-nil the protocol is
// decorated and every round is a span.
func runColEpisode(in *colInputs, sz sizes, tr *tracer, phase int32, workers, rounds int) colEpisode {
	var ep colEpisode
	n := len(in.values)
	// Collect the previous episode's columns first, so that peak RSS is
	// one episode's footprint and not a function of when the collector
	// last happened to run.
	runtime.GC()
	var ms0 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&ms0)
	}
	t0 := time.Now()
	u := env.NewUniform(n)
	truth := metrics.NewTruth(in.values, u.Population)
	proto := pushsumrevert.NewColumnar(in.values, pushsumrevert.Config{Lambda: sz.Lambda})
	var marked time.Time
	cfg := gossip.Config{
		Env: u, Columnar: proto, Model: gossip.Push, Seed: in.seed, Workers: workers,
		BeforeRound: []gossip.Hook{
			failure.TopValuedAt(sz.ColumnarFailAt, 0.5, u.Population, in.values),
			// Recovery is timed from the moment the hosts are gone, not
			// from the start of the hook that sorts them out.
			func(r int, _ *gossip.Engine) {
				if r == sz.ColumnarFailAt {
					marked = time.Now()
				}
			},
		},
	}
	var roundSpan int32
	if tr != nil {
		ep.dec = &colDecor{inner: proto, tr: tr, timed: true, parent: func(int) int32 { return roundSpan }}
		cfg.Columnar = ep.dec
	}
	e, err := gossip.NewEngine(cfg)
	if err != nil {
		panic(err)
	}
	ep.setup = time.Since(t0)

	ep.convergeRound, ep.recoverRound = -1, -1
	want := truth.Average()
	var ms1 runtime.MemStats
	cpu0 := cpuTime()
	start := time.Now()
	for r := 0; r < rounds; r++ {
		alive := u.AliveCount()
		if tr != nil {
			roundSpan = tr.open("gossip.round", phase)
			if r == 1 {
				// Round 0 grew the message column; from here on a
				// round should allocate nothing.
				runtime.ReadMemStats(&ms1)
			}
		}
		t := time.Now()
		e.Step()
		dt := time.Since(t)
		ep.stepTotal += dt
		tr.close(roundSpan)
		if r == sz.ColumnarFailAt {
			alive = u.AliveCount()
			want = truth.Average()
		}
		ep.hostRounds += int64(alive)
		if r < sz.ColumnarFailAt {
			ep.pre = append(ep.pre, dt.Seconds())
			ep.preHosts += int64(alive)
		} else {
			ep.post = append(ep.post, dt.Seconds())
		}
		errNow := sampleError(in.sample, want, e.EstimateOf)
		switch {
		case r < sz.ColumnarFailAt && ep.convergeRound < 0 && errNow <= sz.EpsConverge:
			ep.convergeRound, ep.converge = r+1, time.Since(start)
		case r >= sz.ColumnarFailAt && ep.recoverRound < 0 && errNow <= sz.EpsRecover:
			ep.recoverRound, ep.recover = r-sz.ColumnarFailAt+1, time.Since(marked)
		}
		ep.finalErr = errNow
	}
	ep.cpu = cpuTime() - cpu0
	ep.msgs, ep.contacts = e.Messages(), e.Contacts()
	if tr != nil {
		var ms2 runtime.MemStats
		runtime.ReadMemStats(&ms2)
		if rounds > 1 {
			ep.mallocs = (ms2.Mallocs - ms1.Mallocs) / uint64(rounds-1)
		}
		ep.heapPerHost = float64(ms2.HeapAlloc-ms0.HeapAlloc) / float64(n)
	}
	for _, id := range in.sample {
		v, _ := e.EstimateOf(id)
		ep.estimates = append(ep.estimates, v)
	}
	return ep
}

func runRoundColumnar(rc runConfig, rep *report) {
	sz := rc.Sizes
	in := genColInputs(rc.Seed, sz.ColumnarN, sz.SampleHosts)
	golden := loadColumnarGolden()
	budget := time.Duration(rc.Seconds * float64(time.Second))

	var tr *tracer
	var run, phase int32
	if rc.Trace {
		tr = newTracer("round-columnar")
		run = tr.open("run", 0)
		phase = tr.open("phase.episodes", run)
	}

	// A traced run decorates every other episode only: the bare ones in
	// between are what the tracing overhead is measured against (the
	// process's first episode is slower than the rest whatever it
	// carries, so it cannot be the reference).
	var eps, bare []colEpisode
	var measured, tracedWall time.Duration
	for i := 0; i == 0 || measured+eps[0].stepTotal <= budget+budget/10; i++ {
		etr := tr
		if i%2 == 1 {
			etr = nil
		}
		span := etr.open("phase.episode", phase)
		ep := runColEpisode(in, sz, etr, span, 0, sz.ColumnarRounds)
		etr.close(span)
		tracedWall += etr.duration(span)
		measured += ep.stepTotal
		rep.setup(ep.setup)
		rep.markRSS()
		if rc.Trace && etr == nil {
			bare = append(bare, ep)
		} else {
			eps = append(eps, ep)
		}

		rep.check(ep.convergeRound > 0, "round-columnar: never converged to ε=%g before the departure", sz.EpsConverge)
		rep.check(ep.recoverRound > 0, "round-columnar: never re-reached the survivors' truth within ε=%g", sz.EpsRecover)
		rep.check(ep.finalErr <= sz.EpsRecover, "round-columnar: final sampled error %.4f above ε=%g", ep.finalErr, sz.EpsRecover)
		rep.check(ep.convergeRound == eps[0].convergeRound && ep.recoverRound == eps[0].recoverRound && ep.msgs == eps[0].msgs,
			"round-columnar: episode %d took %d/%d rounds and %d messages, episode 0 took %d/%d and %d: the engine is not deterministic",
			i, ep.convergeRound, ep.recoverRound, ep.msgs, eps[0].convergeRound, eps[0].recoverRound, eps[0].msgs)
	}
	if g, ok := golden[rc.Seed]; ok && sz.Name == "full" {
		rep.check(eps[0].convergeRound == g.Converge && eps[0].recoverRound == g.Recover && eps[0].msgs == g.Messages,
			"round-columnar: seed %d took %d/%d rounds and %d messages; testdata/round_columnar_golden.json says %d/%d and %d",
			rc.Seed, eps[0].convergeRound, eps[0].recoverRound, eps[0].msgs, g.Converge, g.Recover, g.Messages)
	}
	tr.close(phase)
	tr.close(run)

	// Round 0 (growing the message column) and the departure round
	// (sorting the population) are one-off costs, and a shared box adds
	// bursts from other tenants. So the rate and the recovery time are
	// built from the exact round counts and each phase's quiet round
	// time (see quiet); the wall-clock sums are kept as per-layer
	// metrics (gossip.converge_ms, gossip.recover_ms).
	var post, cpu, rec, conv []float64
	var preHosts, postHosts int64
	for _, ep := range eps {
		post = append(post, ep.post...)
		preHosts += ep.preHosts
		postHosts += ep.hostRounds - ep.preHosts
		cpu = append(cpu, float64(ep.cpu.Nanoseconds())/1e3/float64(ep.hostRounds))
		rec = append(rec, millis(ep.recover))
		conv = append(conv, millis(ep.converge))
	}
	rate := float64(preHosts+postHosts) / steadySeconds(eps)
	rep.notef("round-columnar: %d episodes of %d rounds at N=%d; converged in %d rounds, recovered %d rounds after the departure at round %d; %d messages per episode",
		len(eps), sz.ColumnarRounds, sz.ColumnarN, eps[0].convergeRound, eps[0].recoverRound, sz.ColumnarFailAt, eps[0].msgs)

	rep.set("ops_per_s", rate)
	rep.set("cpu_us_per_op", quiet(cpu))
	rep.set("latency_ms", float64(eps[0].recoverRound)*quiet(post)*1e3)

	if !rc.Trace {
		return
	}
	// Per-layer numbers, from the traced episodes only.
	var begin, emit, deliver, end, step time.Duration
	var hosts, msgs, delivered int64
	var mallocs, heap []float64
	for _, ep := range eps {
		begin += ep.dec.begin.total()
		emit += ep.dec.emit.total()
		deliver += ep.dec.deliver.total()
		end += ep.dec.end.total()
		delivered += ep.dec.deliver.units.Load()
		step += ep.stepTotal
		hosts += ep.hostRounds
		msgs += ep.msgs
		mallocs = append(mallocs, float64(ep.mallocs))
		heap = append(heap, ep.heapPerHost)
	}
	// The kernels are handed the whole population and skip the dead,
	// so "per host" is per live host iteration, like ops_per_s. Every
	// live host picks one peer inside EmitRange.
	pickNS := probeEnvPick(rc.Seed, sz.ColumnarN, sz.ProbeMsgs)
	rep.set("protocol.begin_ns_per_host", float64(begin.Nanoseconds())/float64(hosts))
	rep.set("protocol.emit_ns_per_host", float64(emit.Nanoseconds())/float64(hosts)-pickNS)
	rep.set("protocol.deliver_ns_per_msg", float64(deliver.Nanoseconds())/float64(delivered))
	rep.set("protocol.end_ns_per_host", float64(end.Nanoseconds())/float64(hosts))
	rep.set("env.pick_ns_per_call", pickNS)
	rep.set("gossip.route_ns_per_msg", float64((step-begin-emit-deliver-end).Nanoseconds())/float64(msgs))
	rep.set("gossip.allocs_per_round", median(mallocs))
	rep.set("gossip.bytes_per_host", median(heap))
	rep.set("gossip.rounds_to_converge", float64(eps[0].convergeRound))
	rep.set("gossip.rounds_to_recover", float64(eps[0].recoverRound))
	rep.set("gossip.msgs_per_round", float64(eps[0].msgs)/float64(sz.ColumnarRounds))
	rep.set("gossip.converge_ms", median(conv))
	rep.set("gossip.recover_ms", median(rec))
	rep.set("gossip.host_rounds_per_s", rate)

	if len(bare) > 0 {
		rep.set("bench.trace_overhead_ratio", steadySeconds(eps)/float64(len(eps))/(steadySeconds(bare)/float64(len(bare))))
	} else {
		rep.set("bench.trace_overhead_ratio", 1)
	}
	rep.set("bench.trace_coverage_ratio", tr.coverage(tracedWall))

	// Side run: the same engine on the sharded executor, for the
	// multi-core number the roadmap has owed since the executor landed.
	szPar := sz
	szPar.ColumnarN = sz.SpeedupN
	inPar := in
	if sz.SpeedupN != sz.ColumnarN {
		inPar = genColInputs(rc.Seed, sz.SpeedupN, sz.SampleHosts)
	}
	seq := runColEpisode(inPar, szPar, nil, 0, 0, sz.SpeedupRounds)
	par := runColEpisode(inPar, szPar, nil, 0, runtime.GOMAXPROCS(0), sz.SpeedupRounds)
	rep.check(seq.msgs == par.msgs && equalFloats(seq.estimates, par.estimates),
		"round-columnar: the parallel executor's estimates differ from the sequential executor's")
	rep.set("gossip.parallel_speedup", seq.stepTotal.Seconds()/par.stepTotal.Seconds())

	probeColumnarWire(rep, in, sz)
	if err := tr.write(rc.TraceOut); err != nil {
		rep.check(false, "writing trace: %v", err)
	}
}

// steadySeconds is what the episodes' rounds take at each phase's
// quiet round time: rounds before the departure × their quiet time
// plus rounds from it on × theirs.
func steadySeconds(eps []colEpisode) float64 {
	var pre, post []float64
	for _, ep := range eps {
		pre = append(pre, ep.pre...)
		post = append(post, ep.post...)
	}
	return float64(len(pre))*quiet(pre) + float64(len(post))*quiet(post)
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
