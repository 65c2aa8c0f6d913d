package pushsumrevert

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"dynagg/internal/env"
	"dynagg/internal/gossip"
)

func trueMoments(values []float64, alive func(int) bool) (mean, variance float64) {
	var sum, sq float64
	n := 0
	for i, v := range values {
		if alive != nil && !alive(i) {
			continue
		}
		sum += v
		sq += v * v
		n++
	}
	mean = sum / float64(n)
	variance = sq/float64(n) - mean*mean
	return mean, variance
}

// buildMoments runs values on NewMoments agents or, when columnar, on
// one NewColumnarMoments population, and returns the engine with a
// reader of host id's (w, v, q).
func buildMoments(t *testing.T, values []float64, cfg Config, model gossip.Model, seed uint64, columnar bool) (*gossip.Engine, *env.Uniform, func(id int) (w, v, q float64)) {
	t.Helper()
	e := env.NewUniform(len(values))
	ecfg := gossip.Config{Env: e, Model: model, Seed: seed}
	var mass func(id int) (w, v, q float64)
	if columnar {
		c := NewColumnarMoments(values, cfg)
		ecfg.Columnar = c
		mass = func(id int) (w, v, q float64) { return c.w[id], c.v[id], c.q[id] }
	} else {
		agents := make([]*Node, len(values))
		ecfg.Agents = make([]gossip.Agent, len(values))
		for i, v := range values {
			agents[i] = NewMoments(gossip.NodeID(i), v, cfg)
			ecfg.Agents[i] = agents[i]
		}
		mass = func(id int) (w, v, q float64) { c := &agents[id].c; return c.w[0], c.v[0], c.q[0] }
	}
	engine, err := gossip.NewEngine(ecfg)
	if err != nil {
		t.Fatal(err)
	}
	return engine, e, mass
}

// onBothBackends runs f once on agents and once columnar.
func onBothBackends(t *testing.T, f func(t *testing.T, columnar bool)) {
	for _, columnar := range []bool{false, true} {
		t.Run(fmt.Sprintf("columnar=%v", columnar), func(t *testing.T) { f(t, columnar) })
	}
}

func TestNewMomentsPanicsOnBadConfig(t *testing.T) {
	for _, cfg := range []Config{
		{Lambda: 2},
		{Lambda: 0.1, FullTransfer: true, Parcels: 4, Window: 3},
		{Lambda: 0.1, Adaptive: true},
	} {
		for _, columnar := range []bool{false, true} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("columnar=%v: no panic for %+v", columnar, cfg)
					}
				}()
				if columnar {
					NewColumnarMoments([]float64{1}, cfg)
				} else {
					NewMoments(0, 1, cfg)
				}
			}()
		}
	}
}

func TestMomentsInitialState(t *testing.T) {
	n := NewMoments(3, 4, Config{})
	if n.ID() != 3 {
		t.Errorf("ID = %d", n.ID())
	}
	if m := n.Mass(); m.W != 1 || m.V != 4 || n.c.q[0] != 16 {
		t.Errorf("initial mass = %+v, q %v, want {1 4} and 16", m, n.c.q[0])
	}
	if mean, variance, ok := n.Moments(); !ok || mean != 4 || variance != 0 {
		t.Errorf("Moments = %v, %v, %v, want 4, 0 (a single host)", mean, variance, ok)
	}
	// Reset restores q along with (w, v).
	n.c.q[0] = 99
	n.Reset()
	if n.c.q[0] != 16 {
		t.Errorf("q after Reset = %v, want 16", n.c.q[0])
	}
	c := NewColumnarMoments([]float64{4, 2}, Config{Weight: 2})
	if mean, variance, ok := moments(c.w[1], c.v[1], c.q[1]); !ok || mean != 2 || variance != 0 || c.q[1] != 8 {
		t.Errorf("weighted columnar moments = %v, %v, %v, q %v, want 2, 0 and q = w₀·v₀² = 8", mean, variance, ok, c.q[1])
	}
	c.q[1] = 99
	c.Reset(1)
	if c.q[1] != 8 {
		t.Errorf("columnar q after Reset = %v, want 8", c.q[1])
	}
}

// Conservation of all three mass components under push rounds with a
// static node set, for arbitrary values and λ.
func TestMomentsConservation(t *testing.T) {
	onBothBackends(t, func(t *testing.T, columnar bool) {
		prop := func(raw []int8, lambdaRaw uint8, seed uint64) bool {
			if len(raw) < 2 {
				return true
			}
			if len(raw) > 32 {
				raw = raw[:32]
			}
			lambda := float64(lambdaRaw) / 255
			values := make([]float64, len(raw))
			var wantV, wantQ float64
			for i, r := range raw {
				values[i] = float64(r)
				wantV += float64(r)
				wantQ += float64(r) * float64(r)
			}
			engine, _, mass := buildMoments(t, values, Config{Lambda: lambda}, gossip.Push, seed, columnar)
			engine.Run(6)
			var gotW, gotV, gotQ float64
			for id := range values {
				w, v, q := mass(id)
				gotW += w
				gotV += v
				gotQ += q
			}
			wantW := float64(len(values))
			tol := func(want float64) float64 { return 1e-6 * (1 + math.Abs(want)) }
			return math.Abs(gotW-wantW) < tol(wantW) &&
				math.Abs(gotV-wantV) < tol(wantV) &&
				math.Abs(gotQ-wantQ) < tol(wantQ)
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
			t.Error(err)
		}
	})
}

func TestVarianceConverges(t *testing.T) {
	const n = 600
	values := make([]float64, n)
	for i := range values {
		values[i] = float64(i % 100)
	}
	wantMean, wantVar := trueMoments(values, nil)
	onBothBackends(t, func(t *testing.T, columnar bool) {
		engine, _, mass := buildMoments(t, values, Config{Lambda: 0.01}, gossip.PushPull, 1, columnar)
		engine.Run(40)
		for id := range values {
			mean, variance, _ := moments(mass(id))
			if math.Abs(mean-wantMean) > 0.05*wantMean {
				t.Fatalf("host %d mean %v, want %v", id, mean, wantMean)
			}
			if math.Abs(variance-wantVar) > 0.1*wantVar {
				t.Fatalf("host %d variance %v, want %v", id, variance, wantVar)
			}
			sd, _ := engine.EstimateOf(gossip.NodeID(id))
			if math.Abs(sd-math.Sqrt(wantVar)) > 0.05*math.Sqrt(wantVar) {
				t.Fatalf("host %d stddev %v, want %v", id, sd, math.Sqrt(wantVar))
			}
		}
	})
}

// After a correlated failure the variance estimate re-converges to the
// survivors' variance — the dynamic behaviour the reversion buys.
func TestVarianceRecoversAfterFailure(t *testing.T) {
	const n = 800
	values := make([]float64, n)
	for i := range values {
		values[i] = float64(i % 100)
	}
	_, wantVar := trueMoments(values, func(i int) bool { return values[i] < 50 })
	onBothBackends(t, func(t *testing.T, columnar bool) {
		engine, e, mass := buildMoments(t, values, Config{Lambda: 0.1}, gossip.PushPull, 2, columnar)
		engine.Run(20)
		// Fail hosts with values >= 50: survivors hold 0..49.
		for i, v := range values {
			if v >= 50 {
				e.Population.Fail(gossip.NodeID(i))
			}
		}
		engine.Run(60)
		var meanErr float64
		cnt := 0
		for id := range values {
			if !e.Population.Alive(gossip.NodeID(id)) {
				continue
			}
			_, variance, ok := moments(mass(id))
			if !ok {
				continue
			}
			meanErr += math.Abs(variance - wantVar)
			cnt++
		}
		meanErr /= float64(cnt)
		// Variance errors are quadratic in value scale; require recovery
		// to within ~20% of the survivors' true variance (static would
		// sit at the old variance ≈ 833 vs new ≈ 208, a 4× error).
		if meanErr > 0.25*wantVar {
			t.Errorf("post-failure variance error %v, want < %v", meanErr, 0.25*wantVar)
		}
	})
}

func TestUniformValuesVariance(t *testing.T) {
	// U[0,100) has variance 100²/12 ≈ 833; sanity-check the estimator
	// against an analytic target rather than the empirical one.
	const n = 500
	rngVals := make([]float64, n)
	for i := range rngVals {
		rngVals[i] = float64((i*37)%100) + 0.5
	}
	onBothBackends(t, func(t *testing.T, columnar bool) {
		engine, _, _ := buildMoments(t, rngVals, Config{Lambda: 0}, gossip.PushPull, 3, columnar)
		engine.Run(40)
		sd, _ := engine.EstimateOf(0)
		if sd < 20 || sd > 40 {
			t.Errorf("stddev estimate %v, want ≈ 28.9", sd)
		}
	})
}

func TestMomentsIsolatedHostKeepsMass(t *testing.T) {
	n := NewMoments(0, 5, Config{Lambda: 0.1})
	for r := 0; r < 5; r++ {
		n.BeginRound(r)
		envs := n.Emit(r, nil, func() (gossip.NodeID, bool) { return 0, false })
		for _, e := range envs {
			n.Receive(e.Payload)
		}
		n.EndRound(r)
	}
	if m := n.Mass(); math.Abs(m.W-1) > 1e-9 || math.Abs(m.V-5) > 1e-9 || math.Abs(n.c.q[0]-25) > 1e-9 {
		t.Errorf("isolated mass drifted: %+v, q %v", m, n.c.q[0])
	}
	// A one-host population has no peer to pick, so the columnar kernels
	// take the isolated path every round.
	engine, _, mass := buildMoments(t, []float64{5}, Config{Lambda: 0.1}, gossip.Push, 1, true)
	engine.Run(5)
	if w, v, q := mass(0); math.Abs(w-1) > 1e-9 || math.Abs(v-5) > 1e-9 || math.Abs(q-25) > 1e-9 {
		t.Errorf("isolated columnar mass drifted: (%v, %v, %v)", w, v, q)
	}
}

func TestVarianceNeverNegative(t *testing.T) {
	prop := func(w, v, q float64) bool {
		n := NewMoments(0, 1, Config{})
		n.c.w[0] = math.Abs(w) + 0.5
		n.c.v[0] = v
		n.c.q[0] = q
		_, variance, ok := n.Moments()
		return ok && variance >= 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
