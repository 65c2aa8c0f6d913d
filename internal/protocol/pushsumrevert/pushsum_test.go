package pushsumrevert

import (
	"math"
	"testing"
	"testing/quick"

	"dynagg/internal/gossip"
)

// Static Push-Sum is Push-Sum-Revert at λ = 0. The tests below pin the
// baseline's own properties on that configuration.

// pushSum is the λ = 0 configuration for the given gossip model.
func pushSum(model gossip.Model) Config {
	return Config{Lambda: 0, PushPull: model == gossip.PushPull}
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Conservation of mass: any number of push rounds leaves Σw and Σv
// unchanged, for arbitrary initial values.
func TestConservationOfMassPush(t *testing.T) {
	prop := func(raw []int8, seed uint64) bool {
		if len(raw) < 2 {
			return true
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		values := make([]float64, len(raw))
		for i, r := range raw {
			values[i] = float64(r)
		}
		engine, _ := buildEngine(t, values, pushSum(gossip.Push), gossip.Push, seed)
		wantW, wantV := totalMass(engine)
		engine.Run(8)
		gotW, gotV := totalMass(engine)
		return math.Abs(gotW-wantW) < 1e-6*(1+math.Abs(wantW)) &&
			math.Abs(gotV-wantV) < 1e-6*(1+math.Abs(wantV))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestAverageConvergencePushPull(t *testing.T) {
	values := make([]float64, 200)
	for i := range values {
		values[i] = float64(i)
	}
	engine, _ := buildEngine(t, values, pushSum(gossip.PushPull), gossip.PushPull, 2)
	engine.Run(40)
	truth := mean(values)
	for id, a := range engine.Agents() {
		est, _ := a.Estimate()
		if math.Abs(est-truth) > 0.5 {
			t.Errorf("host %d estimate %v, want ≈ %v", id, est, truth)
		}
	}
}

// Push/pull should converge roughly twice as fast as push (Karp et
// al.); assert it is at least no slower at matched round counts.
func TestPushPullNoSlowerThanPush(t *testing.T) {
	values := make([]float64, 500)
	for i := range values {
		values[i] = float64(i % 100)
	}
	truth := mean(values)
	devAfter := func(model gossip.Model) float64 {
		engine, _ := buildEngine(t, values, pushSum(model), model, 3)
		engine.Run(12)
		var worst float64
		for _, a := range engine.Agents() {
			est, _ := a.Estimate()
			if d := math.Abs(est - truth); d > worst {
				worst = d
			}
		}
		return worst
	}
	push := devAfter(gossip.Push)
	pull := devAfter(gossip.PushPull)
	if pull > push*1.5 {
		t.Errorf("push/pull worst error %v much larger than push %v", pull, push)
	}
}

// An isolated host keeps its whole mass and its estimate intact.
func TestIsolatedHostRetainsMass(t *testing.T) {
	n := New(0, 10, pushSum(gossip.Push))
	n.BeginRound(0)
	envs := n.Emit(0, nil, func() (gossip.NodeID, bool) { return 0, false })
	if len(envs) != 1 || envs[0].To != 0 {
		t.Fatalf("isolated emit = %+v, want one self-envelope", envs)
	}
	n.Receive(envs[0].Payload)
	n.EndRound(0)
	if m := n.Mass(); m.W != 1 || m.V != 10 {
		t.Errorf("mass after isolated round = %+v, want {1 10}", m)
	}
	if est, _ := n.Estimate(); est != 10 {
		t.Errorf("estimate = %v, want 10", est)
	}
}

// Exchange leaves both ends with the pairwise mean: the zero-sum
// half-difference transfer. The estimates follow at round end.
func TestExchangeAverages(t *testing.T) {
	a := New(0, 0, pushSum(gossip.PushPull))
	b := New(1, 10, pushSum(gossip.PushPull))
	a.Exchange(b)
	if m := a.Mass(); m.W != 1 || m.V != 5 {
		t.Errorf("a mass = %+v, want {1 5}", m)
	}
	if m := b.Mass(); m.W != 1 || m.V != 5 {
		t.Errorf("b mass = %+v, want {1 5}", m)
	}
	a.EndRound(0)
	b.EndRound(0)
	ea, _ := a.Estimate()
	eb, _ := b.Estimate()
	if ea != 5 || eb != 5 {
		t.Errorf("estimates after exchange = %v, %v; want 5, 5", ea, eb)
	}
}
