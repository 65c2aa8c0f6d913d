package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dynagg/internal/env"
	"dynagg/internal/gossip"
	"dynagg/internal/gossip/live/transport"
	"dynagg/internal/protocol/pushsumrevert"
)

// toySizes shrinks every workload until the whole suite runs in a few
// seconds; the code paths are the full-size ones.
func toySizes() sizes {
	s := fullSizes()
	s.Name = "toy"
	s.ColumnarN, s.SpeedupN, s.SpeedupRounds = 4000, 4000, 5
	s.ClassicSideN, s.ClassicSideRnds = 300, 10
	s.FigN, s.Fig9N, s.ExtremesN, s.Fig11Dataset = 300, 100, 100, 0
	s.LiveN, s.LiveEpisode = 20000, 0.5
	s.ClusterN, s.ClusterSetups, s.Ladder, s.FreshProbes = 96, 2, []int{192}, 3
	s.GatewayN, s.GatewayNames, s.OpenLoopRate = 48, 4, 500
	s.ProbeMsgs = 20000
	return s
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// ladderName matches the per-rung metrics, of which a run reports only
// the rungs it climbed.
var ladderName = regexp.MustCompile(`^live\.ladder\.n\d+\.`)

// TestWorkloadsEndToEnd runs each workload at toy size, untraced and
// traced, and pins the contract between the program and BENCHMARK.json:
// an untraced run reports every end-to-end metric, the traced runs
// together report every per-layer metric, and nothing else is ever
// reported.
func TestWorkloadsEndToEnd(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	seconds := map[string]float64{"round-columnar": 0.3, "round-figures": 0.3, "live-batch": 1.6, "cluster-gossip": 1.2, "gateway-read": 1.0}
	// Sleeping workloads overlap; the deterministic ones assert
	// correctness, the paced ones only log it (a loaded test machine may
	// miss a tick schedule, which is not a defect of the benchmark).
	strict := map[string]bool{"round-columnar": true, "round-figures": true}
	reported := make(chan []string, len(workloads()))
	t.Run("workloads", func(t *testing.T) {
		for _, wl := range workloads() {
			t.Run(wl.name, func(t *testing.T) {
				t.Parallel()
				for _, traced := range []bool{false, true} {
					rc := runConfig{Seed: 7, Seconds: seconds[wl.name], Trace: traced, Sizes: toySizes(),
						TraceOut: filepath.Join(t.TempDir(), "trace.json")}
					rep := newReport(spec, traced)
					wl.run(rc, rep)
					var names []string
					for name := range rep.got {
						names = append(names, name)
					}
					rep.finish()
					if missing := rep.missing(); len(missing) > 0 {
						t.Errorf("traced=%v: not reported: %v", traced, missing)
					}
					res := rep.result()
					if res.Attempted < 1 {
						t.Errorf("traced=%v: attempted = %d", traced, res.Attempted)
					}
					for _, f := range rep.failures {
						if strict[wl.name] || strings.Contains(f, "not declared") {
							t.Errorf("traced=%v: %s", traced, f)
						} else {
							t.Logf("traced=%v: %s", traced, f)
						}
					}
					if !traced {
						for _, m := range spec.EndToEnd {
							if v := res.Metrics[m.Name]; v.Value <= 0 {
								t.Errorf("end-to-end %s = %v, must never be 0", m.Name, v.Value)
							}
						}
						continue
					}
					if _, err := os.Stat(rc.TraceOut); err != nil {
						t.Errorf("traced run wrote no span file: %v", err)
					}
					reported <- names
				}
			})
		}
	})
	close(reported)
	seen := map[string]bool{}
	for names := range reported {
		for _, n := range names {
			seen[n] = true
		}
	}
	for _, m := range spec.PerLayer {
		if !seen[m.Name] && !ladderName.MatchString(m.Name) {
			t.Errorf("per-layer metric %s is declared in BENCHMARK.json but no workload reports it", m.Name)
		}
	}
}

// TestSpecWithinContract checks BENCHMARK.json against the limits the
// benchmark driver enforces before it runs anything.
func TestSpecWithinContract(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) < 2 || len(spec.Workloads) > 8 {
		t.Errorf("%d workloads", len(spec.Workloads))
	}
	declared := map[string]bool{}
	for i, w := range spec.Workloads {
		if w.Name != workloads()[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads()[i].name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (%d)", w.Name, len(w.Why))
		}
		declared[w.Name] = true
	}
	if len(spec.EndToEnd) < 1 || len(spec.EndToEnd) > 16 || len(spec.PerLayer) < 1 || len(spec.PerLayer) > 128 {
		t.Errorf("%d end-to-end, %d per-layer metrics", len(spec.EndToEnd), len(spec.PerLayer))
	}
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	check := func(m metricSpec, bounded bool) {
		if !metricName.MatchString(m.Name) {
			t.Errorf("metric name %q", m.Name)
		}
		if declared[m.Name] {
			t.Errorf("name %q is used twice", m.Name)
		}
		declared[m.Name] = true
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if !bounded && m.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", m.Name)
		}
	}
	for _, m := range spec.EndToEnd {
		check(m, true)
	}
	for _, m := range spec.PerLayer {
		check(m, false)
	}
	if m, ok := spec.endToEnd("setup_s"); !ok || m.Unit != "s" || m.Better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better: %+v", m)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
	// 4 + 22 × workloads runs, each measuring run_seconds plus set-up
	// and side runs (measured: under 5 s), must fit 3420 s with two
	// cold builds (measured: 25 s each).
	if total := (4+22*len(spec.Workloads))*(spec.RunSeconds+6) + 2*30; total > 3420 {
		t.Errorf("the driver's runs would take about %d s, over its 3420 s", total)
	}
}

// TestRoundDecoratorsAreTransparent: a decorated round engine yields
// byte-identical estimates, message and contact counts to a bare one,
// on the columnar and on the classic path.
func TestRoundDecoratorsAreTransparent(t *testing.T) {
	sz := toySizes()
	in := genColInputs(3, sz.ColumnarN, sz.SampleHosts)
	bare := runColEpisode(in, sz, nil, 0, 0, 30)
	tr := newTracer("test")
	decorated := runColEpisode(in, sz, tr, 0, 0, 30)
	if bare.msgs != decorated.msgs || bare.contacts != decorated.contacts || !equalFloats(bare.estimates, decorated.estimates) {
		t.Errorf("columnar: decorated engine diverged: %d/%d messages, %d/%d contacts", bare.msgs, decorated.msgs, bare.contacts, decorated.contacts)
	}
	if decorated.dec.emit.units.Load() == 0 {
		t.Errorf("columnar: decorators recorded nothing")
	}

	const n, rounds = 500, 20
	build := func(decorate bool) *gossip.Engine {
		agents := make([]gossip.Agent, n)
		for i := range agents {
			agents[i] = pushsumrevert.New(gossip.NodeID(i), in.values[i], pushsumrevert.Config{Lambda: sz.Lambda})
		}
		if decorate {
			agents = decorateAgents(agents, 0, &agentClocks{})
		}
		e, err := gossip.NewEngine(gossip.Config{Env: env.NewUniform(n), Agents: agents, Model: gossip.Push, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		e.Run(rounds)
		return e
	}
	a, b := build(false), build(true)
	if a.Messages() != b.Messages() || a.Contacts() != b.Contacts() || !equalFloats(a.Estimates(), b.Estimates()) {
		t.Errorf("classic: decorated engine diverged")
	}
}

// TestTransportDecoratorKeepsCapabilities: capability discovery sees
// through the decorator, so bootstrap and the columnar population work
// on a decorated transport.
func TestTransportDecoratorKeepsCapabilities(t *testing.T) {
	tcp, err := transport.NewTCPLoopback(64, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	d := decorateTransport(tcp, nil)
	if got, ok := transport.AsTCP(d); !ok || got != tcp {
		t.Errorf("AsTCP does not reach the TCP transport through the decorator")
	}
	if b, ok := transport.AsBatcher(d); !ok || b.BatchGroups() != 2 {
		t.Errorf("AsBatcher does not see the batch plane through the decorator")
	}
	if !d.Send(0, 63, 0, pushsumrevert.Mass{W: 1, V: 2}) {
		t.Fatalf("Send through the decorator failed")
	}
	if !drainUntil(1, func() int { k := 0; d.Drain(63, func(any) { k++ }); return k }) {
		t.Errorf("message sent through the decorator never arrived")
	}
	if d.send.units.Load() != 1 || d.drain.units.Load() != 1 {
		t.Errorf("decorator counted %d sends, %d drained messages", d.send.units.Load(), d.drain.units.Load())
	}
}

// TestInputsComeFromTheSeed: the same seed reproduces every generated
// input, another seed changes it.
func TestInputsComeFromTheSeed(t *testing.T) {
	a, b, c := genColInputs(1, 1000, 64), genColInputs(1, 1000, 64), genColInputs(2, 1000, 64)
	if !equalFloats(a.values, b.values) || equalFloats(a.values, c.values) {
		t.Errorf("host values do not follow the seed")
	}
	if strings.Join(seededNames(1, "x", 3), ",") != strings.Join(seededNames(1, "x", 3), ",") ||
		strings.Join(seededNames(1, "x", 3), ",") == strings.Join(seededNames(2, "x", 3), ",") {
		t.Errorf("names do not follow the seed")
	}
	v1, v2 := valuer{seed: 1, n: 100}, valuer{seed: 2, n: 100}
	if v1.value("load", 5) != v1.value("load", 5) || v1.value("load", 5) == v2.value("load", 5) {
		t.Errorf("worker values do not follow the seed")
	}
	m1, m2, m3 := genReadMix(1, 500, 8), genReadMix(1, 500, 8), genReadMix(2, 500, 8)
	if !bytes.Equal(m1.kind, m2.kind) || !bytes.Equal(m1.name, m2.name) || bytes.Equal(m1.name, m3.name) {
		t.Errorf("request mix does not follow the seed")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

// TestCompareVerdicts writes two result sets and checks each verdict
// and the exit code.
func TestCompareVerdicts(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(file string, scale map[string]float64, jitter float64) string {
		path := filepath.Join(dir, file)
		for i := 0; i < 10; i++ {
			for _, wl := range spec.Workloads {
				r := stampedResult{Stamp: stamp{Workload: wl.Name, Seed: uint64(i)}, Result: result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{}}}
				for _, m := range spec.EndToEnd {
					v := 100 * (1 + jitter*float64(i-5)/5)
					if s, ok := scale[wl.Name+"/"+m.Name]; ok {
						v *= s
					}
					r.Result.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
				}
				if err := appendJSONLine(path, r); err != nil {
					t.Fatal(err)
				}
			}
		}
		return path
	}
	a := write("a.jsonl", nil, 0.01)
	same := write("same.jsonl", nil, 0.01)
	worse := write("worse.jsonl", map[string]float64{"live-batch/latency_ms": 1.5}, 0.01)
	noisy := write("noisy.jsonl", nil, 0.9)

	var out bytes.Buffer
	if code := compareFiles(&out, a, same); code != 0 || strings.Contains(out.String(), "regressed") || strings.Contains(out.String(), "unresolved") {
		t.Errorf("identical sets: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(&out, a, worse); code != 1 || !regexp.MustCompile(`live-batch\s+latency_ms.*regressed`).MatchString(out.String()) {
		t.Errorf("a 50%% worse latency must regress: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(&out, a, noisy); code != 0 || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a spread wider than the bound must read unresolved: exit %d\n%s", code, out.String())
	}
}

func TestTracerSelfTimes(t *testing.T) {
	tr := newTracer("t")
	t0 := tr.t0
	tr.add("parent", 0, t0, 10*time.Millisecond)
	tr.add("child", 1, t0.Add(time.Millisecond), 4*time.Millisecond)
	self := tr.selfTimes()
	if self["parent"] != 6*time.Millisecond || self["child"] != 4*time.Millisecond {
		t.Errorf("self times %v", self)
	}
	if got := tr.coverage(10 * time.Millisecond); got != 1 {
		t.Errorf("coverage %v, want 1", got)
	}
}

// The tick gate holds a fast shard within skew ticks of a slow one,
// lets everyone go once released, and ends the episode only after every
// shard has started minTicks ticks.
func TestTickGateBoundsTheSkew(t *testing.T) {
	const skew, minTicks, slowTicks = 2, 20, 30
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g := newTickGate(2, skew, minTicks)
	g.cancel = cancel
	g.deadline = time.Now() // already due: only minTicks holds the end back
	go func() {
		<-ctx.Done()
		g.release()
	}()
	var slow atomic.Int32
	var worst atomic.Int32
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // the fast shard: ticks as often as the gate lets it
		defer wg.Done()
		for tick := 0; ctx.Err() == nil; tick++ {
			g.enter(0, tick)
			if lead := int32(tick) - slow.Load(); lead > worst.Load() && ctx.Err() == nil {
				worst.Store(lead)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for tick := 0; tick < slowTicks && ctx.Err() == nil; tick++ {
			slow.Store(int32(tick))
			g.enter(1, tick)
			time.Sleep(200 * time.Microsecond)
		}
	}()
	wg.Wait()
	if ctx.Err() == nil {
		t.Fatal("the gate never ended the episode")
	}
	// The fast shard reads the slow one's tick a moment after the gate
	// let it through, so one tick of slack on top of the bound.
	if w := worst.Load(); w > skew+1 {
		t.Errorf("fast shard led by %d ticks, bound %d", w, skew)
	}
	if got := g.slowest(); got < minTicks {
		t.Errorf("episode ended after %d ticks of the slow shard, want ≥ %d", got, minTicks)
	}
	if g.waited[0] == 0 {
		t.Error("the fast shard never waited")
	}
}
