package metrics

import (
	"math"
	"testing"
	"time"

	"dynagg/internal/env"
	"dynagg/internal/gossip"
	"dynagg/internal/protocol/pushsumrevert"
	"dynagg/internal/protocol/sketchreset"
	"dynagg/internal/sketch"
	"dynagg/internal/stats"
	"dynagg/internal/trace"
)

func TestTruthTracksLivePopulation(t *testing.T) {
	values := []float64{10, 20, 30, 40}
	pop := env.NewPopulation(4)
	truth := NewTruth(values, pop)

	if truth.Sum() != 100 || truth.Average() != 25 || truth.Count() != 4 {
		t.Errorf("initial truth: sum %v avg %v count %v", truth.Sum(), truth.Average(), truth.Count())
	}
	pop.Fail(3)
	if truth.Sum() != 60 || truth.Average() != 20 || truth.Count() != 3 {
		t.Errorf("post-failure truth: sum %v avg %v count %v", truth.Sum(), truth.Average(), truth.Count())
	}
	pop.Fail(0)
	pop.Fail(1)
	pop.Fail(2)
	if truth.Sum() != 0 || truth.Average() != 0 || truth.Count() != 0 {
		t.Errorf("empty truth: sum %v avg %v count %v", truth.Sum(), truth.Average(), truth.Count())
	}
}

func newAvgEngine(t *testing.T, values []float64, hooks []gossip.Hook) (*gossip.Engine, *env.Uniform) {
	t.Helper()
	u := env.NewUniform(len(values))
	agents := make([]gossip.Agent, len(values))
	for i, v := range values {
		agents[i] = pushsumrevert.New(gossip.NodeID(i), v, pushsumrevert.Config{})
	}
	e, err := gossip.NewEngine(gossip.Config{
		Env: u, Agents: agents, Model: gossip.Push, Seed: 1, AfterRound: hooks,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, u
}

func TestDeviationHookRecordsEveryRound(t *testing.T) {
	values := []float64{0, 100}
	var s stats.Series
	truthFn := func() float64 { return 50 }
	e, _ := newAvgEngine(t, values, []gossip.Hook{DeviationHook(&s, truthFn, (*gossip.Engine).EstimateOf)})
	e.Run(5)
	if s.Len() != 5 {
		t.Fatalf("series length %d, want 5", s.Len())
	}
	for i, x := range s.X {
		if x != float64(i) {
			t.Errorf("x[%d] = %v, want %d", i, x, i)
		}
	}
	// Deviation must shrink as the pair converges (push-gossip between
	// two hosts mixes mass every round).
	if s.Y[4] > s.Y[0] {
		t.Errorf("deviation grew: %v -> %v", s.Y[0], s.Y[4])
	}
}

func TestEstimateMeanHook(t *testing.T) {
	values := []float64{10, 20, 30}
	var s stats.Series
	e, _ := newAvgEngine(t, values, []gossip.Hook{EstimateMeanHook(&s)})
	e.Run(3)
	if s.Len() != 3 {
		t.Fatalf("series length %d", s.Len())
	}
	// Conservation of mass: the mean estimate stays near the true mean.
	for i, y := range s.Y {
		if math.Abs(y-20) > 15 {
			t.Errorf("round %d mean estimate %v implausible", i, y)
		}
	}
}

func TestMessageRateHookMonotone(t *testing.T) {
	values := []float64{1, 2, 3, 4}
	var s stats.Series
	e, _ := newAvgEngine(t, values, []gossip.Hook{MessageRateHook(&s)})
	e.Run(4)
	for i := 1; i < s.Len(); i++ {
		if s.Y[i] < s.Y[i-1] {
			t.Errorf("cumulative messages decreased at round %d", i)
		}
	}
	if s.Y[s.Len()-1] == 0 {
		t.Error("no messages recorded")
	}
}

// Build a trace with two permanent cliques so group truth is exact.
func twoCliqueTrace() *trace.Trace {
	d := 2 * time.Hour
	return &trace.Trace{
		Name: "cliques", N: 4, Duration: d,
		Events: []trace.Event{
			{At: 0, A: 0, B: 1, Up: true},
			{At: 0, A: 2, B: 3, Up: true},
		},
	}
}

func TestGroupDeviationHook(t *testing.T) {
	tr := twoCliqueTrace()
	tenv := env.NewTraceEnv(tr, 30*time.Second, 10*time.Minute)
	values := []float64{0, 10, 100, 200}

	agents := make([]gossip.Agent, 4)
	for i, v := range values {
		agents[i] = pushsumrevert.New(gossip.NodeID(i), v, pushsumrevert.Config{PushPull: true})
	}
	var s, sizes stats.Series
	e, err := gossip.NewEngine(gossip.Config{
		Env: tenv, Agents: agents, Model: gossip.PushPull, Seed: 2,
		AfterRound: []gossip.Hook{
			GroupDeviationHook(&s, &sizes, tenv, values, GroupAverage, 1, (*gossip.Engine).EstimateOf),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(30)
	if s.Len() != 30 || sizes.Len() != 30 {
		t.Fatalf("series lengths %d, %d; want 30", s.Len(), sizes.Len())
	}
	// Two 2-cliques: per-host mean group size is 2.
	if sizes.Y[10] != 2 {
		t.Errorf("mean group size %v, want 2", sizes.Y[10])
	}
	// Push/pull within a pair converges in one exchange; deviation from
	// group averages (5 and 150) should go to ~0.
	if s.Y[s.Len()-1] > 1 {
		t.Errorf("final group deviation %v, want ≈ 0", s.Y[s.Len()-1])
	}
	// x coordinates are simulated hours.
	if s.X[s.Len()-1] > 2.01 {
		t.Errorf("x coordinate %v beyond trace hours", s.X[s.Len()-1])
	}
}

func TestGroupDeviationHookSampling(t *testing.T) {
	tr := twoCliqueTrace()
	tenv := env.NewTraceEnv(tr, 30*time.Second, 10*time.Minute)
	values := []float64{0, 10, 100, 200}
	agents := make([]gossip.Agent, 4)
	for i, v := range values {
		agents[i] = pushsumrevert.New(gossip.NodeID(i), v, pushsumrevert.Config{PushPull: true})
	}
	var s stats.Series
	e, err := gossip.NewEngine(gossip.Config{
		Env: tenv, Agents: agents, Model: gossip.PushPull, Seed: 2,
		AfterRound: []gossip.Hook{
			GroupDeviationHook(&s, nil, tenv, values, GroupSum, 10, (*gossip.Engine).EstimateOf),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(30)
	if s.Len() != 3 {
		t.Errorf("sampled series length %d, want 3 (every 10th round)", s.Len())
	}
}

// TestGroupDeviationHookOnColumnarEngine drives the hook with a
// columnar Count-Sketch-Reset engine over a trace environment — a
// columnar engine has no per-host agents, so the hook must read through
// Engine.EstimateOf — and requires the series to equal the classic
// engine's bit for bit.
func TestGroupDeviationHookOnColumnarEngine(t *testing.T) {
	tr := twoCliqueTrace()
	values := []float64{1, 1, 1, 1}
	cfg := sketchreset.Config{Params: sketch.DefaultParams, Identifiers: 100, Scale: 100}
	run := func(columnar bool) stats.Series {
		tenv := env.NewTraceEnv(tr, 30*time.Second, 10*time.Minute)
		var s stats.Series
		ecfg := gossip.Config{
			Env: tenv, Model: gossip.PushPull, Seed: 2,
			AfterRound: []gossip.Hook{GroupDeviationHook(&s, nil, tenv, values, GroupSize, 5, (*gossip.Engine).EstimateOf)},
		}
		if columnar {
			ecfg.Columnar = sketchreset.NewColumnar(tr.N, cfg)
		} else {
			ecfg.Agents = make([]gossip.Agent, tr.N)
			for i := range ecfg.Agents {
				ecfg.Agents[i] = sketchreset.New(gossip.NodeID(i), cfg)
			}
		}
		e, err := gossip.NewEngine(ecfg)
		if err != nil {
			t.Fatal(err)
		}
		e.Run(30)
		return s
	}
	classic, columnar := run(false), run(true)
	if classic.Len() != 6 || columnar.Len() != 6 {
		t.Fatalf("series lengths %d (classic), %d (columnar); want 6", classic.Len(), columnar.Len())
	}
	for i := range classic.Y {
		if math.Float64bits(classic.Y[i]) != math.Float64bits(columnar.Y[i]) || classic.X[i] != columnar.X[i] {
			t.Errorf("sample %d: columnar (%v, %v), classic (%v, %v)", i, columnar.X[i], columnar.Y[i], classic.X[i], classic.Y[i])
		}
	}
	// Each clique of two converges on one sketch of 200 identifiers,
	// which estimates a size near 2.
	if last := classic.Y[classic.Len()-1]; last > 1 {
		t.Errorf("final deviation from group size %v, want < 1", last)
	}
}

func TestGroupTruthKinds(t *testing.T) {
	tr := twoCliqueTrace()
	tenv := env.NewTraceEnv(tr, 30*time.Second, 10*time.Minute)
	tenv.Advance(0)
	asg := tenv.Groups()
	values := []float64{0, 10, 100, 200}

	if got := groupTruth(asg, 0, values, GroupAverage); got != 5 {
		t.Errorf("GroupAverage truth for host 0 = %v, want 5", got)
	}
	if got := groupTruth(asg, 2, values, GroupSum); got != 300 {
		t.Errorf("GroupSum truth for host 2 = %v, want 300", got)
	}
	if got := groupTruth(asg, 1, values, GroupSize); got != 2 {
		t.Errorf("GroupSize truth for host 1 = %v, want 2", got)
	}
}
