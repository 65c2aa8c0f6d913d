package multi

import (
	"math"
	"testing"

	"dynagg/internal/env"
	"dynagg/internal/gossip"
	"dynagg/internal/protocol/pushsumrevert"
	"dynagg/internal/protocol/sketchreset"
	"dynagg/internal/sketch"
)

func build(t *testing.T, n int, mk func(i int) map[string]float64, lambda float64, pushPull bool, seed uint64) (*gossip.Engine, *env.Uniform) {
	t.Helper()
	e := env.NewUniform(n)
	model := gossip.Push
	if pushPull {
		model = gossip.PushPull
	}
	agents := make([]gossip.Agent, n)
	for i := 0; i < n; i++ {
		agents[i] = New(gossip.NodeID(i), mk(i),
			sketchreset.Config{Params: sketch.DefaultParams, Identifiers: 1},
			pushsumrevert.Config{Lambda: lambda, PushPull: pushPull},
		)
	}
	engine, err := gossip.NewEngine(gossip.Config{Env: e, Agents: agents, Model: model, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return engine, e
}

func TestNewPanicsWithoutAggregates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for empty aggregate set")
		}
	}()
	New(0, nil, sketchreset.Config{Params: sketch.DefaultParams}, pushsumrevert.Config{})
}

func TestNamesSortedAndAccessors(t *testing.T) {
	n := New(3, map[string]float64{"z": 1, "a": 2, "m": 3},
		sketchreset.Config{Params: sketch.DefaultParams},
		pushsumrevert.Config{})
	if n.ID() != 3 {
		t.Errorf("ID = %d", n.ID())
	}
	names := n.Names()
	if len(names) != 3 || names[0] != "a" || names[1] != "m" || names[2] != "z" {
		t.Errorf("Names = %v", names)
	}
	if _, ok := n.Agg("a"); !ok {
		t.Error("Agg(a) missing")
	}
	if _, ok := n.Agg("nope"); ok {
		t.Error("Agg(nope) present")
	}
	if _, ok := n.Average("nope"); ok {
		t.Error("Average(nope) present")
	}
	if n.Count() == nil {
		t.Error("Count nil")
	}
	// Identifiers: 0 defaults to one owned identifier.
	if n.Count().Owned() < 1 {
		t.Error("New: default Identifiers registered no identifier")
	}
}

// Full-Transfer is refused by every constructor with one message: the
// shared peer draw would put all N parcels in one bundle, which keeps
// one mass per name.
func TestNewRefusesFullTransfer(t *testing.T) {
	countCfg := sketchreset.Config{Params: sketch.DefaultParams}
	avgCfg := pushsumrevert.Config{FullTransfer: true, Parcels: 4, Window: 3}
	refusal := func(build func()) (msg any) {
		defer func() { msg = recover() }()
		build()
		return nil
	}
	want := refusal(func() { refuseFullTransfer(avgCfg) })
	for name, build := range map[string]func(){
		"New":         func() { New(0, map[string]float64{"v": 1}, countCfg, avgCfg) },
		"NewObserver": func() { NewObserver(0, []string{"v"}, countCfg, avgCfg) },
	} {
		if got := refusal(build); got == nil || got != want {
			t.Errorf("%s: panic %v, want %v", name, got, want)
		}
	}
}

// The core contract: several aggregates converge concurrently, sharing
// one sketch.
func TestConcurrentAggregatesConverge(t *testing.T) {
	const n = 800
	mk := func(i int) map[string]float64 {
		return map[string]float64{
			"temp": float64(i % 40),       // avg 19.5
			"load": float64((i * 3) % 10), // avg 4.5
		}
	}
	engine, _ := build(t, n, mk, 0.01, true, 1)
	engine.Run(25)
	node := engine.Agents()[0].(*Node)

	size, ok := node.Size()
	if !ok || math.Abs(size-n) > 0.35*n {
		t.Errorf("size %v, %v; want ≈ %d", size, ok, n)
	}
	if avg, ok := node.Average("temp"); !ok || math.Abs(avg-19.5) > 2 {
		t.Errorf("temp average %v, %v; want ≈ 19.5", avg, ok)
	}
	if avg, ok := node.Average("load"); !ok || math.Abs(avg-4.5) > 1 {
		t.Errorf("load average %v, %v; want ≈ 4.5", avg, ok)
	}
	wantTempSum := 19.5 * n
	if sum, ok := node.Sum("temp"); !ok || math.Abs(sum-wantTempSum) > 0.4*wantTempSum {
		t.Errorf("temp sum %v, %v; want ≈ %v", sum, ok, wantTempSum)
	}
	if _, ok := node.Sum("nope"); ok {
		t.Error("Sum(nope) present")
	}
	if est, ok := node.Estimate(); !ok || est != size {
		t.Errorf("Estimate %v, %v; want the size estimate %v", est, ok, size)
	}
	// Sum is exactly Average × Size: Invert-Average's estimate.
	for _, name := range node.Names() {
		sum, _ := node.Sum(name)
		if avg, _ := node.Average(name); sum != avg*size {
			t.Errorf("%s: Sum %v != Average %v × Size %v", name, sum, avg, size)
		}
	}

	// A strongly reverting population of all-zero values keeps every
	// estimate finite.
	zeros, _ := build(t, 100, func(int) map[string]float64 { return map[string]float64{"v": 0} }, 0.5, true, 5)
	zeros.Run(10)
	for id, a := range zeros.Agents() {
		if sum, ok := a.(*Node).Sum("v"); ok && (math.IsNaN(sum) || math.IsInf(sum, 0)) {
			t.Errorf("host %d sum %v not finite", id, sum)
		}
	}
}

func TestPushModeConverges(t *testing.T) {
	const n = 500
	e := env.NewUniform(n)
	agents := make([]gossip.Agent, n)
	for i := 0; i < n; i++ {
		agents[i] = New(gossip.NodeID(i), map[string]float64{"v": float64(i % 100)},
			// One-directional push propagates slower than the mutual
			// exchange the paper derives 7+k/4 under (§IV-A: the peer
			// responding "lower[s] the bound on Ni"); push-only needs a
			// correspondingly larger cutoff.
			sketchreset.Config{
				Params: sketch.DefaultParams, Identifiers: 1,
				Cutoff: func(k int) float64 { return 16 + float64(k)/2 },
			},
			pushsumrevert.Config{Lambda: 0.01},
		)
	}
	engine, err := gossip.NewEngine(gossip.Config{Env: e, Agents: agents, Model: gossip.Push, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	engine.Run(30)
	node := engine.Agents()[0].(*Node)
	if avg, ok := node.Average("v"); !ok || math.Abs(avg-49.5) > 5 {
		t.Errorf("push-mode average %v, %v; want ≈ 49.5", avg, ok)
	}
	if size, ok := node.Size(); !ok || math.Abs(size-n) > 0.4*n {
		t.Errorf("push-mode size %v, %v; want ≈ %d", size, ok, n)
	}
}

// Both halves self-heal after correlated departures: the sum tracks
// the survivors.
func TestRecoversAfterFailure(t *testing.T) {
	const n = 800
	values := make([]float64, n)
	for i := range values {
		values[i] = float64(i % 10)
	}
	mk := func(i int) map[string]float64 { return map[string]float64{"v": values[i]} }
	engine, e := build(t, n, mk, 0.1, true, 3)
	engine.Run(20)
	var want float64
	for i, v := range values {
		if v >= 5 {
			e.Population.Fail(gossip.NodeID(i))
		} else {
			want += v
		}
	}
	engine.Run(40)
	var mean float64
	cnt := 0
	for id, a := range engine.Agents() {
		if !e.Population.Alive(gossip.NodeID(id)) {
			continue
		}
		if sum, ok := a.(*Node).Sum("v"); ok {
			mean += sum
			cnt++
		}
	}
	mean /= float64(cnt)
	if math.Abs(mean-want) > 0.5*want {
		t.Errorf("post-failure sum %v, want ≈ %v", mean, want)
	}
}

// Marginal cost check: the shared sketch means adding aggregates does
// not multiply the message count.
func TestMessageCountIndependentOfAggregates(t *testing.T) {
	const n = 200
	count := func(k int) int64 {
		mk := func(i int) map[string]float64 {
			m := make(map[string]float64, k)
			for j := 0; j < k; j++ {
				m[string(rune('a'+j))] = float64(i)
			}
			return m
		}
		engine, _ := build(t, n, mk, 0.01, false, 4)
		engine.Run(5)
		return engine.Messages()
	}
	one := count(1)
	five := count(5)
	// The bundle per (destination) is one envelope; five aggregates
	// ride in the same envelopes, so message counts stay equal.
	if five != one {
		t.Errorf("message count grew with aggregates: %d (1 agg) vs %d (5 aggs)", one, five)
	}
}
