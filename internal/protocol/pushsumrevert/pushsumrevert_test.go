package pushsumrevert

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"dynagg/internal/env"
	"dynagg/internal/gossip"
)

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"zero", Config{}, true},
		{"lambda in range", Config{Lambda: 0.5}, true},
		{"lambda negative", Config{Lambda: -0.1}, false},
		{"lambda above one", Config{Lambda: 1.1}, false},
		{"full transfer valid", Config{Lambda: 0.1, FullTransfer: true, Parcels: 4, Window: 3}, true},
		{"full transfer no parcels", Config{FullTransfer: true, Window: 3}, false},
		{"full transfer no window", Config{FullTransfer: true, Parcels: 4}, false},
		{"full transfer + adaptive", Config{FullTransfer: true, Parcels: 4, Window: 3, Adaptive: true}, false},
		{"full transfer + pushpull", Config{FullTransfer: true, Parcels: 4, Window: 3, PushPull: true}, false},
		{"adaptive + pushpull", Config{Adaptive: true, PushPull: true}, false},
		{"adaptive alone", Config{Lambda: 0.1, Adaptive: true}, true},
		{"pushpull alone", Config{Lambda: 0.1, PushPull: true}, true},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: expected error, got nil", c.name)
		}
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with invalid config did not panic")
		}
	}()
	New(0, 1, Config{Lambda: 2})
}

func buildEngine(t *testing.T, values []float64, cfg Config, model gossip.Model, seed uint64) (*gossip.Engine, *env.Uniform) {
	t.Helper()
	e := env.NewUniform(len(values))
	agents := make([]gossip.Agent, len(values))
	for i, v := range values {
		agents[i] = New(gossip.NodeID(i), v, cfg)
	}
	engine, err := gossip.NewEngine(gossip.Config{Env: e, Agents: agents, Model: model, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return engine, e
}

func totalMass(engine *gossip.Engine) (w, v float64) {
	for _, a := range engine.Agents() {
		m := a.(*Node).Mass()
		w += m.W
		v += m.V
	}
	return w, v
}

// §III's central lemma: with a static node set, the Revert step
// conserves mass, so Σw = n and Σv = Σv₀ forever — for any λ.
func TestRevertConservesMassStaticSet(t *testing.T) {
	prop := func(raw []int8, lambdaRaw uint8, seed uint64) bool {
		if len(raw) < 2 {
			return true
		}
		if len(raw) > 48 {
			raw = raw[:48]
		}
		lambda := float64(lambdaRaw) / 255 // λ ∈ [0,1]
		values := make([]float64, len(raw))
		var wantV float64
		for i, r := range raw {
			values[i] = float64(r)
			wantV += float64(r)
		}
		e := env.NewUniform(len(values))
		agents := make([]gossip.Agent, len(values))
		for i, v := range values {
			agents[i] = New(gossip.NodeID(i), v, Config{Lambda: lambda})
		}
		engine, err := gossip.NewEngine(gossip.Config{Env: e, Agents: agents, Model: gossip.Push, Seed: seed})
		if err != nil {
			return false
		}
		engine.Run(6)
		gotW, gotV := totalMass(engine)
		wantW := float64(len(values))
		return math.Abs(gotW-wantW) < 1e-6*(1+wantW) &&
			math.Abs(gotV-wantV) < 1e-6*(1+math.Abs(wantV))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Push/pull mode with the once-per-round reversion also conserves mass
// on a static set.
func TestRevertConservesMassPushPull(t *testing.T) {
	values := []float64{5, 10, 15, 20, 25, 30, 35, 40}
	engine, _ := buildEngine(t, values, Config{Lambda: 0.25, PushPull: true}, gossip.PushPull, 3)
	wantW, wantV := totalMass(engine)
	engine.Run(25)
	gotW, gotV := totalMass(engine)
	if math.Abs(gotW-wantW) > 1e-6 || math.Abs(gotV-wantV) > 1e-6 {
		t.Errorf("mass drifted: (%v,%v) -> (%v,%v)", wantW, wantV, gotW, gotV)
	}
}

// λ=0 is static Push-Sum. This test checks only that it converges to
// the true average; the bit-identity proof is the pushsum/push and
// pushsum/push-pull rows of engineGoldens (internal/gossip), recorded
// on a separate Push-Sum implementation and reproduced from λ=0.
func TestLambdaZeroIsPushSum(t *testing.T) {
	values := make([]float64, 100)
	for i := range values {
		values[i] = float64(i)
	}
	engine, _ := buildEngine(t, values, Config{Lambda: 0}, gossip.Push, 7)
	engine.Run(30)
	truth := 49.5
	for id, a := range engine.Agents() {
		est, _ := a.Estimate()
		if math.Abs(est-truth) > 0.05 {
			t.Errorf("host %d estimate %v, want ≈ %v", id, est, truth)
		}
	}
}

func TestConvergesWithReversion(t *testing.T) {
	values := make([]float64, 400)
	for i := range values {
		values[i] = float64(i % 100)
	}
	truth := 49.5
	engine, _ := buildEngine(t, values, Config{Lambda: 0.01, PushPull: true}, gossip.PushPull, 11)
	engine.Run(40)
	ests := engine.Estimates()
	var worst float64
	for _, e := range ests {
		if d := math.Abs(e - truth); d > worst {
			worst = d
		}
	}
	// Reversion bounds accuracy, so allow a coarser tolerance than
	// static Push-Sum; the estimate must still be close.
	if worst > 5 {
		t.Errorf("worst estimate error %v with λ=0.01, want < 5", worst)
	}
}

// The headline behaviour (Figure 10a): after failing the highest-valued
// half, Push-Sum-Revert reconverges to the survivors' average while
// λ=0 stays stuck near the old average.
func TestReconvergesAfterCorrelatedFailure(t *testing.T) {
	const n = 600
	values := make([]float64, n)
	for i := range values {
		values[i] = float64(i % 100)
	}

	run := func(lambda float64) float64 {
		engine, e := buildEngine(t, values, Config{Lambda: lambda, PushPull: true}, gossip.PushPull, 13)
		engine.Run(20)
		// Fail the highest-valued half.
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return values[order[a]] > values[order[b]] })
		for _, id := range order[:n/2] {
			e.Population.Fail(gossip.NodeID(id))
		}
		engine.Run(60)
		// Survivors' true average: values 0..49 → 24.5.
		var sum float64
		var cnt int
		for _, id := range e.Population.AliveIDs() {
			sum += values[id]
			cnt++
		}
		truth := sum / float64(cnt)
		ests := engine.Estimates()
		var meanErr float64
		for _, est := range ests {
			meanErr += math.Abs(est - truth)
		}
		return meanErr / float64(len(ests))
	}

	static := run(0)
	dynamic := run(0.1)
	if dynamic > 6 {
		t.Errorf("λ=0.1 mean error %v after failure, want < 6", dynamic)
	}
	if static < 2*dynamic {
		t.Errorf("static error %v should be far worse than dynamic %v", static, dynamic)
	}
}

// Uncorrelated failures should not hurt even λ=0 (Figure 8).
func TestUncorrelatedFailureHarmless(t *testing.T) {
	const n = 600
	values := make([]float64, n)
	for i := range values {
		values[i] = float64(i % 100)
	}
	engine, e := buildEngine(t, values, Config{Lambda: 0.01, PushPull: true}, gossip.PushPull, 17)
	engine.Run(20)
	// Fail every other host: value-independent.
	for i := 0; i < n; i += 2 {
		e.Population.Fail(gossip.NodeID(i))
	}
	engine.Run(30)
	var sum float64
	var cnt int
	for _, id := range e.Population.AliveIDs() {
		sum += values[id]
		cnt++
	}
	truth := sum / float64(cnt)
	for _, est := range engine.Estimates() {
		if math.Abs(est-truth) > 5 {
			t.Errorf("estimate %v far from truth %v after uncorrelated failure", est, truth)
		}
	}
}

func TestFullTransferConverges(t *testing.T) {
	const n = 500
	values := make([]float64, n)
	for i := range values {
		values[i] = float64(i % 100)
	}
	truth := 49.5
	cfg := Config{Lambda: 0.1, FullTransfer: true, Parcels: 4, Window: 3}
	engine, _ := buildEngine(t, values, cfg, gossip.Push, 19)
	engine.Run(40)
	ests := engine.Estimates()
	var meanErr float64
	for _, est := range ests {
		meanErr += math.Abs(est - truth)
	}
	meanErr /= float64(len(ests))
	if meanErr > 5 {
		t.Errorf("full-transfer mean error %v, want < 5", meanErr)
	}
}

// Full-Transfer removes the self-bias: at equal λ its converged error
// should be no worse than the basic protocol's (Figure 10b vs 10a).
func TestFullTransferBeatsBasicAtHighLambda(t *testing.T) {
	const n = 800
	values := make([]float64, n)
	for i := range values {
		values[i] = float64(i % 100)
	}
	truth := 49.5
	meanErr := func(cfg Config, model gossip.Model) float64 {
		engine, _ := buildEngine(t, values, cfg, model, 23)
		engine.Run(50)
		var s float64
		ests := engine.Estimates()
		for _, est := range ests {
			s += math.Abs(est - truth)
		}
		return s / float64(len(ests))
	}
	basic := meanErr(Config{Lambda: 0.5}, gossip.Push)
	full := meanErr(Config{Lambda: 0.5, FullTransfer: true, Parcels: 4, Window: 3}, gossip.Push)
	if full > basic {
		t.Errorf("full-transfer error %v worse than basic %v at λ=0.5", full, basic)
	}
}

func TestAdaptiveConverges(t *testing.T) {
	const n = 500
	values := make([]float64, n)
	for i := range values {
		values[i] = float64(i % 100)
	}
	truth := 49.5
	engine, _ := buildEngine(t, values, Config{Lambda: 0.05, Adaptive: true}, gossip.Push, 29)
	engine.Run(40)
	var meanErr float64
	ests := engine.Estimates()
	for _, est := range ests {
		meanErr += math.Abs(est - truth)
	}
	meanErr /= float64(len(ests))
	if meanErr > 5 {
		t.Errorf("adaptive mean error %v, want < 5", meanErr)
	}
}

func TestAccessors(t *testing.T) {
	cfg := Config{Lambda: 0.25}
	n := New(5, 12.5, cfg)
	if n.ID() != 5 {
		t.Errorf("ID = %v", n.ID())
	}
	if n.Value() != 12.5 {
		t.Errorf("Value = %v", n.Value())
	}
	if n.Config() != cfg {
		t.Errorf("Config = %+v", n.Config())
	}
	if m := n.Mass(); m.W != 1 || m.V != 12.5 {
		t.Errorf("initial mass = %+v", m)
	}
	if est, ok := n.Estimate(); !ok || est != 12.5 {
		t.Errorf("initial estimate = %v, %v", est, ok)
	}
}

// An isolated Full-Transfer host must not lose mass: parcels with no
// peer return home.
func TestFullTransferIsolatedKeepsMass(t *testing.T) {
	cfg := Config{Lambda: 0, FullTransfer: true, Parcels: 4, Window: 3}
	n := New(0, 10, cfg)
	for r := 0; r < 5; r++ {
		n.BeginRound(r)
		envs := n.Emit(r, nil, func() (gossip.NodeID, bool) { return 0, false })
		for _, e := range envs {
			if e.To != 0 {
				t.Fatalf("isolated host addressed parcel to %d", e.To)
			}
			n.Receive(e.Payload)
		}
		n.EndRound(r)
	}
	if m := n.Mass(); math.Abs(m.W-1) > 1e-9 || math.Abs(m.V-10) > 1e-9 {
		t.Errorf("mass after isolated rounds = %+v, want {1 10}", m)
	}
	if est, _ := n.Estimate(); math.Abs(est-10) > 1e-9 {
		t.Errorf("estimate = %v, want 10", est)
	}
}

// Weighted averaging: with non-uniform weights the network converges
// on Σwᵢvᵢ/Σwᵢ, and the reversion regenerates the *weighted* mass
// after a correlated departure.
func TestWeightedAverage(t *testing.T) {
	const n = 400
	values := make([]float64, n)
	weights := make([]float64, n)
	var num, den float64
	for i := range values {
		values[i] = float64(i % 100)
		weights[i] = 1 + float64(i%4) // weights 1..4
		num += weights[i] * values[i]
		den += weights[i]
	}
	want := num / den

	e := env.NewUniform(n)
	agents := make([]gossip.Agent, n)
	for i := range agents {
		// λ=0.1 so the post-failure recovery completes within the test
		// horizon; the price is a coarser pre-failure plateau.
		agents[i] = New(gossip.NodeID(i), values[i],
			Config{Lambda: 0.1, Weight: weights[i], PushPull: true})
	}
	engine, err := gossip.NewEngine(gossip.Config{Env: e, Agents: agents, Model: gossip.PushPull, Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	engine.Run(40)
	// λ=0.1 leaves each host a self-bias proportional to |v₀ − avg|
	// (§III-A), so individual estimates can be ~10 off; the population
	// mean must still sit on the weighted average.
	var meanEst float64
	for id, a := range engine.Agents() {
		est, _ := a.Estimate()
		meanEst += est
		if math.Abs(est-want) > 15 {
			t.Fatalf("host %d weighted estimate %v, want ≈ %v", id, est, want)
		}
		if a.(*Node).Weight() != weights[id] {
			t.Fatalf("host %d Weight() = %v", id, a.(*Node).Weight())
		}
	}
	meanEst /= float64(n)
	if math.Abs(meanEst-want) > 3 {
		t.Fatalf("mean weighted estimate %v, want ≈ %v", meanEst, want)
	}

	// Fail the high-value half; survivors' weighted average is the
	// recovery target.
	var snum, sden float64
	for i, v := range values {
		if v >= 50 {
			e.Population.Fail(gossip.NodeID(i))
		} else {
			snum += weights[i] * v
			sden += weights[i]
		}
	}
	swant := snum / sden
	engine.Run(80)
	var meanErr float64
	cnt := 0
	for _, est := range engine.Estimates() {
		meanErr += math.Abs(est - swant)
		cnt++
	}
	meanErr /= float64(cnt)
	if meanErr > 6 {
		t.Errorf("post-failure weighted error %v, want < 6 (target %v)", meanErr, swant)
	}
}

func TestWeightValidation(t *testing.T) {
	if err := (Config{Weight: -1}).Validate(); err == nil {
		t.Error("negative weight accepted")
	}
	// Zero weight defaults to 1.
	node := New(0, 5, Config{})
	if node.Weight() != 1 {
		t.Errorf("default weight = %v, want 1", node.Weight())
	}
}

// The reversion step pulls an injected perturbation back toward the
// initial value: after many solo rounds with λ>0 the mass returns to
// (1, v₀).
func TestReversionDecaysPerturbation(t *testing.T) {
	n := New(0, 10, Config{Lambda: 0.5, PushPull: true})
	// Perturb the node's mass far from its initial value.
	n.c.w[0], n.c.v[0] = 3, -50
	for r := 0; r < 40; r++ {
		n.BeginRound(r)
		n.EndRound(r) // push/pull mode: reversion applies at round end
	}
	if m := n.Mass(); math.Abs(m.W-1) > 1e-6 || math.Abs(m.V-10) > 1e-6 {
		t.Errorf("mass did not revert: w=%v v=%v, want 1, 10", m.W, m.V)
	}
}
