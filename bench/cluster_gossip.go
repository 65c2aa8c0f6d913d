package main

import (
	"fmt"
	"math"
	"net/http"
	"time"

	"dynagg/internal/chaos"
	"dynagg/internal/gossip"
	"dynagg/internal/xrand"
)

// seededNames makes the aggregate names of a run from its seed.
func seededNames(seed uint64, prefix string, k int) []string {
	rng := xrand.NewStream(seed, 0x9a3e)
	names := make([]string, k)
	for i := range names {
		names[i] = fmt.Sprintf("%s-%04x-%d", prefix, rng.Uint32()&0xffff, i)
	}
	return names
}

// clusterUp is one started cluster and what starting it cost.
type clusterUp struct {
	c        *cluster
	setup    time.Duration
	converge time.Duration // gateway start → first correct read
}

// bringUp starts a cluster and waits until the gateway serves the
// first name correctly; that whole interval is the set-up.
func bringUp(cfg clusterConfig, eps float64, timeout time.Duration) (clusterUp, error) {
	t0 := time.Now()
	c, err := startCluster(cfg)
	if err != nil {
		return clusterUp{}, err
	}
	t1 := time.Now()
	_, _, ok := c.awaitAverage(cfg.Names[0], c.val.mean(cfg.Names[0], 0, cfg.N), eps, timeout)
	if !ok {
		c.stop()
		return clusterUp{}, fmt.Errorf("gateway never served %q within %g of truth at N=%d", cfg.Names[0], eps, cfg.N)
	}
	return clusterUp{c: c, setup: time.Since(t0), converge: time.Since(t1)}, nil
}

// freshProbe registers a new name at the gateway and waits until a
// read returns the workers' truth for it: the freshness a client
// feels, in wall time and in observer ticks.
type freshProbe struct {
	wall  time.Duration
	ticks int
	ok    bool
}

func (c *cluster) freshProbe(name string, eps float64, timeout time.Duration) freshProbe {
	tick0 := c.gatewayTick()
	start := time.Now()
	code, _, err := c.do(http.MethodPost, "/aggregate/"+name)
	if err != nil || code != http.StatusCreated {
		return freshProbe{}
	}
	_, b, ok := c.awaitAverage(name, c.val.mean(name, 0, c.cfg.N), eps, timeout)
	return freshProbe{wall: time.Since(start), ticks: b.Tick - tick0, ok: ok}
}

// goodRead reads one aggregate until its average is within eps of the
// resolver truth over hosts [0, hi) and (when tol is positive) the
// size sketch is within tol, or two seconds have passed. One read is
// one draw from a noisy estimator — the size sketch ages bits out
// whenever the workers fall a few ticks behind the observer — so a
// check asks for a good read within reach, not at one instant.
func (c *cluster) goodRead(name string, hi int, eps, tol float64) (b aggBody, avgOK, sizeOK bool) {
	want := c.val.mean(name, 0, hi)
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		var ok bool
		b, ok = c.read(name)
		avgOK = ok && math.Abs(b.Average-want) <= eps*want
		sizeOK = tol <= 0 || ok && math.Abs(b.Size-float64(hi)) <= tol*float64(hi)
		if avgOK && sizeOK || time.Now().After(deadline) {
			return b, avgOK, sizeOK
		}
	}
}

// checkReads verifies what the gateway serves: every name's average,
// and with the first name the size sketch.
func checkReads(rep *report, c *cluster, names []string, hi int, eps, tol float64, when string) bool {
	all := true
	for i, name := range names {
		if i > 0 {
			tol = 0
		}
		b, avgOK, sizeOK := c.goodRead(name, hi, eps, tol)
		all = rep.check(avgOK, "cluster N=%d %s: %q served %.3f, truth %.3f ±%g", c.cfg.N, when, name, b.Average, c.val.mean(name, 0, hi), eps) && all
		all = rep.check(sizeOK, "cluster N=%d %s: size estimate %.0f, truth %d ±%.0f%%", c.cfg.N, when, b.Size, hi, tol*100) && all
	}
	return all
}

func runClusterGossip(rc runConfig, rep *report) {
	sz := rc.Sizes
	names := seededNames(rc.Seed, "agg", 2)
	total := time.Duration(rc.Seconds * float64(time.Second))
	base := clusterConfig{N: sz.ClusterN, Members: sz.ClusterMembers, Pace: sz.ClusterPace, Names: names, Seed: rc.Seed, Lambda: sz.Lambda}

	// Set-up is paid once per cluster; extra bring-ups make its
	// quartile mean something.
	for i := 1; i < sz.ClusterSetups; i++ {
		up, err := bringUp(base, sz.EpsAverage, 10*time.Second)
		if !rep.check(err == nil, "cluster-gossip: %v", err) {
			return
		}
		rep.setup(up.setup)
		up.c.stop()
	}

	var tr *tracer
	var run, phase int32
	steadyFor := total * 8 / 10
	if rc.Trace {
		tr = newTracer("cluster-gossip")
		run = tr.open("run", 0)
		phase = tr.open("phase.steady", run)
		steadyFor = total * 45 / 100
		base.Trace, base.Parent = tr, phase
	}

	up, err := bringUp(base, sz.EpsAverage, 10*time.Second)
	if !rep.check(err == nil, "cluster-gossip: %v", err) {
		return
	}
	c := up.c
	defer c.stop()
	rep.setup(up.setup)

	// Steady phase: the schedule is fixed (an open loop — ticks are due
	// every pace whether or not the last one finished), and freshness
	// probes are spread evenly over it.
	// A traced run times the decorated calls only in every other slot;
	// the cost per host tick of the two kinds of slot is the tracing
	// overhead, on the same engines under the same growing name set.
	var probes []freshProbe
	var steady, timedSlots, bareSlots window
	slot := steadyFor / time.Duration(sz.FreshProbes)
	start := time.Now()
	for i := 0; i < sz.FreshProbes; i++ {
		bare := rc.Trace && i%2 == 1
		if rc.Trace {
			c.clocks.off.Store(bare)
		}
		w := c.measure(sz.ClusterN, func() {
			p := c.freshProbe(fmt.Sprintf("fresh-%d-%d", rc.Seed, i), sz.EpsAverage, slot)
			probes = append(probes, p)
			rep.check(p.ok, "cluster-gossip: freshness probe %d not served correctly within %v", i, slot)
			if next := start.Add(time.Duration(i+1) * slot); time.Until(next) > 0 {
				time.Sleep(time.Until(next))
			}
		})
		steady.add(w)
		if bare {
			bareSlots.add(w)
		} else {
			timedSlots.add(w)
		}
	}
	steady.ratios(sz.ClusterN, sz.ClusterPace)
	rep.markRSS()
	tr.close(phase)
	steadyOK := checkReads(rep, c, names, sz.ClusterN, sz.EpsAverage, sz.SizeTolerance, "steady")
	rep.check(steady.dropRatio <= 0.02, "cluster-gossip: steady phase dropped %.4f of its messages", steady.dropRatio)
	// The check is whether the open loop is saturated (then it measures
	// only its own backlog), not whether the box had a slow minute: the
	// seed commit keeps 0.99–1.00 of the schedule, 0.96 on a slow stretch,
	// and the rung criterion below (0.9) stays what "sustained" means.
	rep.check(steady.tickRatio >= 0.8, "cluster-gossip: steady phase kept %.3f of its tick schedule", steady.tickRatio)
	steadyOK = steadyOK && steady.dropRatio <= 0.02 && steady.tickRatio >= 0.9

	// Silent departure: the span holding the high values goes away and
	// nothing is told; the gateway must re-reach the survivors' truth.
	last := len(c.members) - 1
	survivors := c.members[last].lo
	phase = tr.open("phase.departure", run)
	tickAtLoss := c.gatewayTick()
	lossAt := time.Now()
	c.stopMember(last)
	_, recBody, recOK := c.awaitAverage(names[0], c.val.mean(names[0], 0, survivors), sz.EpsAverage, sz.RecoverWithin)
	recWall := time.Since(lossAt)
	tr.close(phase)
	rep.check(recOK, "cluster-gossip: gateway did not re-reach the survivors' truth within %v of losing span [%d,%d)", sz.RecoverWithin, survivors, sz.ClusterN)

	// Mass census over the survivors, on the undecorated nodes: an
	// honest run's ΣV/ΣW is a convex combination of true host values,
	// on its way from the old population's mean to the survivors' (the
	// reversion pulls it there), so it may not be further from the
	// survivors' mean than the old mean was.
	for i := range c.members {
		c.stopMember(i)
	}
	var aggs []gossip.Agent
	var w0, v0 float64
	for _, m := range c.members[:last] {
		for j, node := range m.workers {
			if a, ok := node.Agg(names[0]); ok {
				aggs = append(aggs, a)
				w0++
				v0 += c.val.value(names[0], m.lo+j)
			}
		}
	}
	w1, v1, ok := chaos.SumMass(aggs)
	drift := chaos.LiveMassAudit(w0, v0, w1, v1, 1).MaxDrift
	gap := math.Abs(c.val.mean(names[0], 0, sz.ClusterN)-v0/w0) / (v0 / w0)
	rep.check(ok && drift <= 1.1*gap, "cluster-gossip: survivors' ΣV/ΣW is %.4f from their mean, further than the departed population's mean (%.4f)", drift, gap)

	var fresh, freshTicks []float64
	for _, p := range probes {
		if p.ok {
			fresh = append(fresh, millis(p.wall))
			freshTicks = append(freshTicks, float64(p.ticks))
		}
	}
	rep.notef("cluster-gossip: N=%d, %d members, pace %v: steady %.1fs, %d host ticks (%.3f of schedule), %d sent, %d dropped (%d overflow); fresh %v ms; recovered in %v",
		sz.ClusterN, sz.ClusterMembers, sz.ClusterPace, steady.wall.Seconds(), steady.hostTicks, steady.tickRatio,
		steady.sent, steady.dropped, steady.overflow, roundAll(fresh), recWall.Round(time.Millisecond))
	rep.set("ops_per_s", float64(steady.hostTicks)/steady.wall.Seconds())
	rep.set("cpu_us_per_op", float64(steady.cpu.Nanoseconds())/1e3/float64(steady.hostTicks))
	rep.set("latency_ms", median(fresh))

	if !rc.Trace {
		return
	}
	tr.close(run)
	// Layer clocks ran only in the timed slots, so per-host-tick figures
	// divide by those slots' counts.
	hostTicks := float64(timedSlots.hostTicks)
	cl := c.clocks
	rep.set("protocol.multi.begin_ns_per_host", cl.begin.perUnit())
	rep.set("protocol.multi.emit_ns_per_host", cl.emit.perUnit())
	rep.set("protocol.multi.receive_ns_per_msg", cl.receive.perUnit())
	rep.set("protocol.multi.end_ns_per_host", cl.end.perUnit())
	var send, drain clock
	var drainCalls int64
	for _, m := range c.members {
		send.ns.Add(m.dec.send.ns.Load())
		send.units.Add(m.dec.send.units.Load())
		drain.ns.Add(m.dec.drain.ns.Load())
		drain.units.Add(m.dec.drain.units.Load())
		drainCalls += m.dec.drainCalls.Load()
	}
	rep.set("transport.tcp.send_ns_per_msg", send.perUnit())
	rep.set("transport.tcp.drain_ns_per_msg", drain.perUnit())
	rep.set("transport.tcp.msgs_per_drain", float64(drain.units.Load())/float64(drainCalls))
	rep.set("transport.tcp.overflow_drops", float64(steady.overflow))
	rep.set("transport.tcp.reconnects", float64(steady.reconnects))
	rep.set("transport.tcp.kills", float64(steady.kills))
	rep.set("live.tick_rate_ratio", steady.tickRatio)
	rep.set("live.drop_ratio", steady.dropRatio)
	rep.set("live.cpu_us_per_host_tick", float64(timedSlots.cpu.Nanoseconds())/1e3/hostTicks)
	layers := cl.begin.total() + cl.emit.total() + cl.receive.total() + cl.end.total() + send.total() + drain.total()
	rep.set("live.self_ns_per_host_tick", (float64(timedSlots.cpu.Nanoseconds())-float64(layers.Nanoseconds()))/hostTicks)
	rep.set("live.bootstrap_ms", millis(c.bootstrap))
	rep.set("gateway.converge_ms", millis(up.converge))
	rep.set("gateway.fresh_ms", median(fresh))
	rep.set("gateway.fresh_ticks", median(freshTicks))
	rep.set("gateway.recover_ms", millis(recWall))
	rep.set("gateway.recover_ticks", float64(recBody.Tick-tickAtLoss))
	rep.set("gateway.observer_tick_rate_ratio", steady.gwRatio)
	bareCPU := float64(bareSlots.cpu.Nanoseconds()) / float64(bareSlots.hostTicks)
	rep.set("bench.trace_overhead_ratio", float64(timedSlots.cpu.Nanoseconds())/hostTicks/bareCPU)
	// The drivers are paced, so most of the wall is waiting for the
	// next tick: coverage is the layers' time over the CPU the process
	// burned, not over the wall. What the decorators cannot see — the
	// transport's reader and writer goroutines, the observer, the
	// collector — is the remainder.
	rep.set("bench.trace_coverage_ratio", float64(layers.Nanoseconds())/float64(timedSlots.cpu.Nanoseconds()))

	runLadder(rep, rc, base, steadyOK, total*12/100)
	probeWire(rep, rc.Seed, sz, "counters", "frame")
	probeSendDrain(rep, rc.Seed, sz, names)
	probeMultiEmitAllocs(rep, rc.Seed, names)
	if err := tr.write(rc.TraceOut); err != nil {
		rep.check(false, "writing trace: %v", err)
	}
}

// runLadder looks for the largest population the deployable path keeps
// on schedule: fresh, undecorated clusters at growing N, each measured
// for the same window, climbing while the previous rung passes.
func runLadder(rep *report, rc runConfig, base clusterConfig, steadyOK bool, per time.Duration) {
	sz := rc.Sizes
	base.Trace, base.Parent = nil, 0
	sustained := 0
	rungs := sz.Ladder
	if steadyOK {
		sustained = sz.ClusterN
	} else {
		// The steady size itself fell over: step down once.
		rungs = []int{sz.LadderDown}
	}
	for _, n := range rungs {
		cfg := base
		cfg.N = n
		up, err := bringUp(cfg, sz.EpsAverage, 3*time.Second)
		if err != nil {
			rep.notef("cluster-gossip: ladder N=%d: %v", n, err)
			rep.set(fmt.Sprintf("live.ladder.n%d.drop_ratio", n), 1)
			rep.set(fmt.Sprintf("live.ladder.n%d.tick_rate_ratio", n), 0)
			break
		}
		w := up.c.measure(n, func() { time.Sleep(per) })
		b, avgOK, sizeOK := up.c.goodRead(cfg.Names[0], n, sz.EpsAverage, sz.SizeTolerance)
		readOK := avgOK && sizeOK
		want := up.c.val.mean(cfg.Names[0], 0, n)
		up.c.stop()
		rep.set(fmt.Sprintf("live.ladder.n%d.drop_ratio", n), w.dropRatio)
		rep.set(fmt.Sprintf("live.ladder.n%d.tick_rate_ratio", n), w.tickRatio)
		rep.notef("cluster-gossip: ladder N=%d: drop ratio %.4f (%d overflow), tick rate %.3f of schedule, read ok=%v (avg %.2f want %.2f, size %.0f)",
			n, w.dropRatio, w.overflow, w.tickRatio, readOK, b.Average, want, b.Size)
		if w.dropRatio > 0.02 || w.tickRatio < 0.9 || !readOK {
			break
		}
		sustained = n
	}
	rep.set("live.sustained_hosts", float64(sustained))
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x)
	}
	return out
}
