package epoch

import (
	"math"
	"testing"

	"dynagg/internal/env"
	"dynagg/internal/gossip"
)

func TestConfigValidate(t *testing.T) {
	if err := (Config{Length: 10, Maturity: 5}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if err := (Config{Length: 0}).Validate(); err == nil {
		t.Error("zero length accepted")
	}
	if err := (Config{Length: 5, Maturity: 6}).Validate(); err == nil {
		t.Error("maturity beyond length accepted")
	}
	if err := (Config{Length: 5, Maturity: -1}).Validate(); err == nil {
		t.Error("negative maturity accepted")
	}
}

func TestNewDefaultsMaturity(t *testing.T) {
	n := New(0, 1, Config{Length: 10})
	if n.cfg.Maturity != 5 {
		t.Errorf("default maturity = %d, want Length/2 = 5", n.cfg.Maturity)
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with Length 0 did not panic")
		}
	}()
	New(0, 1, Config{Length: -1})
}

func build(t *testing.T, values []float64, cfg Config, seed uint64) (*gossip.Engine, *env.Uniform) {
	t.Helper()
	e := env.NewUniform(len(values))
	agents := make([]gossip.Agent, len(values))
	for i, v := range values {
		agents[i] = New(gossip.NodeID(i), v, cfg)
	}
	engine, err := gossip.NewEngine(gossip.Config{Env: e, Agents: agents, Model: gossip.Push, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return engine, e
}

func TestConvergesWithinEpoch(t *testing.T) {
	values := make([]float64, 300)
	for i := range values {
		values[i] = float64(i % 100)
	}
	truth := 49.5
	engine, _ := build(t, values, Config{Length: 30, Maturity: 20}, 1)
	engine.Run(25) // mature, before the first reset
	for id, a := range engine.Agents() {
		est, ok := a.Estimate()
		if !ok {
			t.Fatalf("host %d has no estimate", id)
		}
		if math.Abs(est-truth) > 1 {
			t.Errorf("host %d estimate %v, want ≈ %v", id, est, truth)
		}
	}
}

func TestEpochAdvances(t *testing.T) {
	values := make([]float64, 50)
	engine, _ := build(t, values, Config{Length: 10, Maturity: 5}, 2)
	engine.Run(35)
	for id, a := range engine.Agents() {
		n := a.(*Node)
		if n.Epoch() < 3 {
			t.Errorf("host %d epoch %d after 35 rounds of length-10 epochs", id, n.Epoch())
		}
	}
}

// All hosts settle on the same epoch: a straggler adopting gossip from
// a newer epoch resets and joins it.
func TestEpochsSynchronize(t *testing.T) {
	values := make([]float64, 100)
	engine, _ := build(t, values, Config{Length: 12, Maturity: 6}, 3)
	engine.Run(40)
	first := engine.Agents()[0].(*Node).Epoch()
	for id, a := range engine.Agents() {
		if e := a.(*Node).Epoch(); abs(e-first) > 1 {
			t.Errorf("host %d epoch %d far from host 0's %d", id, e, first)
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// A membership change is eventually reflected — after the epoch that
// follows the change completes — unlike static Push-Sum, which never
// recovers from correlated loss.
func TestRecoversAfterFailureViaReset(t *testing.T) {
	const n = 400
	values := make([]float64, n)
	for i := range values {
		values[i] = float64(i % 100)
	}
	engine, e := build(t, values, Config{Length: 25, Maturity: 18}, 4)
	engine.Run(25)
	// Fail the top-valued half.
	var sum float64
	var cnt int
	for i, v := range values {
		if v >= 50 {
			e.Population.Fail(gossip.NodeID(i))
		} else {
			sum += v
			cnt++
		}
	}
	truth := sum / float64(cnt)
	// Run through one full epoch plus maturity so the new epoch's
	// estimate reflects only survivors.
	engine.Run(50)
	var meanErr float64
	ests := engine.Estimates()
	for _, est := range ests {
		meanErr += math.Abs(est - truth)
	}
	meanErr /= float64(len(ests))
	if meanErr > 3 {
		t.Errorf("mean error %v two epochs after failure, want < 3", meanErr)
	}
}

// Before maturity, hosts serve the previous epoch's estimate rather
// than the noisy fresh one.
func TestImmatureEpochServesPreviousEstimate(t *testing.T) {
	n := New(0, 10, Config{Length: 10, Maturity: 8})
	// Simulate a completed epoch with a converged state.
	n.w, n.v = 1, 42 // pretend the epoch converged to 42
	n.age = 9
	n.BeginRound(0) // age hits 10 → reset to epoch 1
	if n.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1", n.Epoch())
	}
	est, ok := n.Estimate()
	if !ok || est != 42 {
		t.Errorf("immature estimate = %v, %v; want previous epoch's 42", est, ok)
	}
}

// Stale-epoch mass is discarded on receive.
func TestStaleEpochMassDiscarded(t *testing.T) {
	n := New(0, 10, Config{Length: 100, Maturity: 1})
	n.epoch = 5
	n.BeginRound(0)
	n.Receive(&Message{Epoch: 3, W: 100, V: 100})
	n.EndRound(0)
	if n.w == 100 {
		t.Error("stale mass adopted")
	}
}

// Newer-epoch mass preempts current-epoch mass within the same round.
func TestNewerEpochPreempts(t *testing.T) {
	n := New(0, 10, Config{Length: 100, Maturity: 1})
	n.BeginRound(0)
	n.Receive(&Message{Epoch: 0, W: 0.5, V: 5})
	n.Receive(&Message{Epoch: 2, W: 0.25, V: 1})
	n.Receive(&Message{Epoch: 0, W: 0.5, V: 5}) // stale relative to 2 now
	n.EndRound(0)
	if n.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", n.Epoch())
	}
	// State = initial (1, 10) + received (0.25, 1).
	if math.Abs(n.w-1.25) > 1e-9 || math.Abs(n.v-11) > 1e-9 {
		t.Errorf("post-adoption mass = (%v, %v), want (1.25, 11)", n.w, n.v)
	}
}

// Within one epoch (static set, no resets), exchanges conserve mass.
func TestConservationWithinEpoch(t *testing.T) {
	values := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	engine, _ := build(t, values, Config{Length: 1000, Maturity: 1}, 5)
	var wantW, wantV float64
	for _, a := range engine.Agents() {
		n := a.(*Node)
		wantW += n.w
		wantV += n.v
	}
	engine.Run(10)
	var gotW, gotV float64
	for _, a := range engine.Agents() {
		n := a.(*Node)
		gotW += n.w
		gotV += n.v
	}
	if math.Abs(gotW-wantW) > 1e-9 || math.Abs(gotV-wantV) > 1e-9 {
		t.Errorf("mass drifted within epoch: (%v,%v) -> (%v,%v)", wantW, wantV, gotW, gotV)
	}
}
