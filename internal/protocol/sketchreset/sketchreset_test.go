package sketchreset

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"dynagg/internal/env"
	"dynagg/internal/gossip"
	"dynagg/internal/sketch"
	"dynagg/internal/wire"
)

var smallParams = sketch.Params{Bins: 16, Levels: 12}

func TestConfigValidate(t *testing.T) {
	if err := (Config{Params: smallParams, Identifiers: 1}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if err := (Config{Params: sketch.Params{}, Identifiers: 1}).Validate(); err == nil {
		t.Error("zero params accepted")
	}
	if err := (Config{Params: smallParams, Identifiers: -1}).Validate(); err == nil {
		t.Error("negative identifiers accepted")
	}
}

func TestDefaultCutoff(t *testing.T) {
	if got := DefaultCutoff(0); got != 7 {
		t.Errorf("f(0) = %v, want 7", got)
	}
	if got := DefaultCutoff(8); got != 9 {
		t.Errorf("f(8) = %v, want 9", got)
	}
	// The paper's bound is linear in k.
	if DefaultCutoff(20)-DefaultCutoff(16) != 1 {
		t.Error("cutoff is not linear with slope 1/4")
	}
}

func TestOwnerPinsCounterAtZero(t *testing.T) {
	n := New(0, Config{Params: smallParams, Identifiers: 1})
	if n.Owned() < 1 {
		t.Fatal("host owns no index")
	}
	for r := 0; r < 10; r++ {
		n.BeginRound(r)
		n.EndRound(r)
	}
	var pinned int
	p := smallParams
	for bin := 0; bin < p.Bins; bin++ {
		for k := 0; k < p.Levels; k++ {
			if n.CounterAt(bin, k) == 0 {
				pinned++
			}
		}
	}
	if pinned != n.Owned() {
		t.Errorf("%d counters at zero, want exactly the %d owned", pinned, n.Owned())
	}
}

// Counters the host does not own advance by exactly 1 per round once
// they hold a finite age, and start at Never.
func TestUnsourcedCountersAge(t *testing.T) {
	a := New(0, Config{Params: smallParams, Identifiers: 1})
	b := New(1, Config{Params: smallParams, Identifiers: 1})
	// Find an index b owns and a does not.
	var bin, level int
	found := false
	for bi := 0; bi < smallParams.Bins && !found; bi++ {
		for k := 0; k < smallParams.Levels && !found; k++ {
			if b.CounterAt(bi, k) == 0 && a.CounterAt(bi, k) == Never {
				bin, level = bi, k
				found = true
			}
		}
	}
	if !found {
		t.Skip("hosts collided on all owned indices (improbable)")
	}
	// Deliver b's matrix to a once.
	a.BeginRound(0)
	snapshot := make([]uint8, smallParams.Bins*smallParams.Levels)
	for bi := 0; bi < smallParams.Bins; bi++ {
		for k := 0; k < smallParams.Levels; k++ {
			snapshot[bi*smallParams.Levels+k] = b.CounterAt(bi, k)
		}
	}
	a.Receive(snapshot)
	a.EndRound(0)
	age0 := a.CounterAt(bin, level)
	if age0 != 0 {
		t.Fatalf("freshly received source counter = %d, want 0", age0)
	}
	// With no further deliveries the counter advances 1 per round.
	for r := 1; r <= 5; r++ {
		a.BeginRound(r)
		a.EndRound(r)
		if got := a.CounterAt(bin, level); int(got) != r {
			t.Fatalf("counter after %d silent rounds = %d, want %d", r, got, r)
		}
	}
}

// Min-merge properties, property-tested: the merged counter is the
// element-wise minimum; merge is idempotent and commutative.
func TestMinMergeProperties(t *testing.T) {
	prop := func(xs, ys []uint8) bool {
		size := smallParams.Bins * smallParams.Levels
		mk := func(src []uint8) *Node {
			n := New(0, Config{Params: smallParams, Identifiers: 0})
			buf := make([]uint8, size)
			for i := range buf {
				if i < len(src) {
					buf[i] = src[i]
				} else {
					buf[i] = Never
				}
			}
			n.Receive(buf)
			return n
		}
		na := mk(xs)
		nb := mk(ys)
		// Merge b into a, then b into a again (idempotence) and a's
		// original payload into b (commutativity).
		bufB := make([]uint8, size)
		bufA := make([]uint8, size)
		for bin := 0; bin < smallParams.Bins; bin++ {
			for k := 0; k < smallParams.Levels; k++ {
				i := bin*smallParams.Levels + k
				bufB[i] = nb.CounterAt(bin, k)
				bufA[i] = na.CounterAt(bin, k)
			}
		}
		na.Receive(bufB)
		na.Receive(bufB)
		nb.Receive(bufA)
		for bin := 0; bin < smallParams.Bins; bin++ {
			for k := 0; k < smallParams.Levels; k++ {
				i := bin*smallParams.Levels + k
				want := bufA[i]
				if bufB[i] < want {
					want = bufB[i]
				}
				if na.CounterAt(bin, k) != want || nb.CounterAt(bin, k) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Exchange leaves both matrices identical except at owned indices,
// which re-pin to zero.
func TestExchangeSymmetric(t *testing.T) {
	a := New(0, Config{Params: smallParams, Identifiers: 1})
	b := New(1, Config{Params: smallParams, Identifiers: 1})
	a.BeginRound(0)
	b.BeginRound(0)
	a.Exchange(b)
	for bin := 0; bin < smallParams.Bins; bin++ {
		for k := 0; k < smallParams.Levels; k++ {
			ca, cb := a.CounterAt(bin, k), b.CounterAt(bin, k)
			if ca != cb && ca != 0 && cb != 0 {
				t.Errorf("counters differ at (%d,%d): %d vs %d", bin, k, ca, cb)
			}
		}
	}
}

// buildNetwork returns a push/pull engine over n hosts of cfg on the
// classic backend, or on the columnar one when columnar is set.
func buildNetwork(t *testing.T, n int, cfg Config, seed uint64, columnar bool) (*gossip.Engine, *env.Uniform) {
	t.Helper()
	e := env.NewUniform(n)
	ecfg := gossip.Config{Env: e, Model: gossip.PushPull, Seed: seed}
	if columnar {
		ecfg.Columnar = NewColumnar(n, cfg)
	} else {
		ecfg.Agents = make([]gossip.Agent, n)
		for i := range ecfg.Agents {
			ecfg.Agents[i] = New(gossip.NodeID(i), cfg)
		}
	}
	engine, err := gossip.NewEngine(ecfg)
	if err != nil {
		t.Fatal(err)
	}
	return engine, e
}

func TestCountConverges(t *testing.T) {
	const n = 2000
	engine, _ := buildNetwork(t, n, Config{Params: sketch.DefaultParams, Identifiers: 1}, 1, false)
	engine.Run(25)
	est, ok := engine.EstimateOf(0)
	if !ok {
		t.Fatal("no estimate")
	}
	if math.Abs(est-n) > 0.35*n {
		t.Errorf("count estimate %v, want %d ± 35%%", est, n)
	}
}

// The headline self-healing behaviour (Figure 9): after half the hosts
// fail, the estimate decays back toward the survivor count, while the
// NoDecay baseline stays at the old count. NoDecay is the columnar
// backend's only static count, so both backends are checked.
func TestEstimateDecaysAfterFailure(t *testing.T) {
	const n = 2000
	for _, backend := range []string{"classic", "columnar"} {
		t.Run(backend, func(t *testing.T) {
			run := func(noDecay bool) float64 {
				engine, e := buildNetwork(t, n, Config{
					Params: sketch.DefaultParams, Identifiers: 1, NoDecay: noDecay,
				}, 2, backend == "columnar")
				engine.Run(20)
				for i := 0; i < n; i += 2 {
					e.Population.Fail(gossip.NodeID(i))
				}
				engine.Run(25)
				// Mean estimate over survivors.
				ests := engine.Estimates()
				var s float64
				for _, v := range ests {
					s += v
				}
				return s / float64(len(ests))
			}
			dynamic := run(false)
			static := run(true)
			if math.Abs(dynamic-n/2) > 0.4*n/2 {
				t.Errorf("dynamic estimate %v after failure, want ≈ %d", dynamic, n/2)
			}
			if static < 0.8*n {
				t.Errorf("static estimate %v should stay near the pre-failure %d", static, n)
			}
			if dynamic > static {
				t.Errorf("dynamic estimate %v did not decay below static %v", dynamic, static)
			}
		})
	}
}

// Without any source, every finite counter eventually crosses the
// cutoff and the estimate collapses to zero.
func TestEstimateCollapsesWithoutSources(t *testing.T) {
	// One host with no identifiers, primed with a matrix of small ages.
	n := New(0, Config{Params: smallParams, Identifiers: 0})
	size := smallParams.Bins * smallParams.Levels
	buf := make([]uint8, size)
	n.Receive(buf) // all counters at 0: looks like a huge network
	n.EndRound(0)
	if est, _ := n.Estimate(); est <= 0 {
		t.Fatalf("primed estimate %v, want > 0", est)
	}
	for r := 1; r < 50; r++ {
		n.BeginRound(r)
		n.EndRound(r)
	}
	if est, _ := n.Estimate(); est != 0 {
		t.Errorf("estimate %v after aging out, want 0", est)
	}
}

func TestNoDecayNeverCollapses(t *testing.T) {
	n := New(0, Config{Params: smallParams, Identifiers: 0, NoDecay: true})
	buf := make([]uint8, smallParams.Bins*smallParams.Levels)
	n.Receive(buf)
	n.EndRound(0)
	before, _ := n.Estimate()
	for r := 1; r < 100; r++ {
		n.BeginRound(r)
		n.EndRound(r)
	}
	after, _ := n.Estimate()
	if after != before {
		t.Errorf("NoDecay estimate changed %v -> %v", before, after)
	}
}

func TestIdentifierInflationAndScale(t *testing.T) {
	const n = 30
	engine, _ := buildNetwork(t, n, Config{
		Params: sketch.DefaultParams, Identifiers: 100, Scale: 100,
	}, 3, false)
	engine.Run(15)
	est, _ := engine.EstimateOf(0)
	if math.Abs(est-n) > 0.5*n {
		t.Errorf("inflated estimate %v, want ≈ %d", est, n)
	}
}

// Counters saturate at maxAge rather than wrapping to a live value.
func TestCounterSaturation(t *testing.T) {
	n := New(0, Config{Params: smallParams, Identifiers: 0})
	buf := make([]uint8, smallParams.Bins*smallParams.Levels)
	for i := range buf {
		buf[i] = maxAge - 1
	}
	n.Receive(buf)
	for r := 0; r < 5; r++ {
		n.BeginRound(r)
		n.EndRound(r)
	}
	for bin := 0; bin < smallParams.Bins; bin++ {
		for k := 0; k < smallParams.Levels; k++ {
			if c := n.CounterAt(bin, k); c != maxAge {
				t.Fatalf("counter at (%d,%d) = %d, want saturated %d", bin, k, c, maxAge)
			}
		}
	}
}

// Never is distinguishable from saturation: untouched counters stay at
// Never and never contribute a set bit.
func TestNeverCountersStayNever(t *testing.T) {
	n := New(0, Config{Params: smallParams, Identifiers: 0})
	for r := 0; r < 10; r++ {
		n.BeginRound(r)
		n.EndRound(r)
	}
	for bin := 0; bin < smallParams.Bins; bin++ {
		for k := 0; k < smallParams.Levels; k++ {
			if n.BitSet(bin, k) {
				t.Fatalf("bit (%d,%d) set with no sources ever", bin, k)
			}
		}
	}
	if est, ok := n.Estimate(); !ok || est != 0 {
		t.Errorf("estimate = %v, %v; want 0, true", est, ok)
	}
}

// Estimates are always finite and non-negative, whatever garbage
// arrives.
func TestEstimateFiniteNonNegative(t *testing.T) {
	prop := func(raw []uint8) bool {
		n := New(0, Config{Params: smallParams, Identifiers: 1})
		size := smallParams.Bins * smallParams.Levels
		buf := make([]uint8, size)
		copy(buf, raw)
		n.Receive(buf)
		n.EndRound(0)
		est, ok := n.Estimate()
		return ok && !math.IsNaN(est) && !math.IsInf(est, 0) && est >= 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCustomCutoff(t *testing.T) {
	calls := 0
	cut := func(k int) float64 { calls++; return 100 }
	New(0, Config{Params: smallParams, Identifiers: 1, Cutoff: cut})
	if calls != smallParams.Levels {
		t.Errorf("cutoff evaluated %d times, want once per level (%d)", calls, smallParams.Levels)
	}
}

// A counter matrix of the wrong length can only arrive over a network
// transport (mis-configured peer or forged datagram); min-merging it
// would index out of range, so Receive must ignore it like any other
// lost message.
func TestReceiveIgnoresMismatchedMatrixLength(t *testing.T) {
	n := New(0, Config{Params: sketch.Params{Bins: 4, Levels: 8}, Identifiers: 1})
	before, _ := n.Estimate()
	n.Receive(make([]uint8, 4096))
	n.Receive([]uint8{0})
	if after, _ := n.Estimate(); after != before {
		t.Errorf("mismatched matrix changed the estimate %v -> %v", before, after)
	}
}

// TestPackedReceiveMatchesMatrixReceive pins the wire-form payload: a
// host that receives a matrix as *Packed ends up with exactly the
// counters of one that received it as []uint8, over rounds of aging and
// merging; a packed matrix of another shape is ignored whole; and
// NewPacked refuses what the codec would.
func TestPackedReceiveMatchesMatrixReceive(t *testing.T) {
	cfg := Config{Params: smallParams, Identifiers: 1}
	viaMatrix, viaPacked := New(0, cfg), New(0, cfg)
	peers := []*Node{New(1, cfg), New(2, cfg), New(3, cfg)}
	for round := 0; round < 20; round++ {
		viaMatrix.BeginRound(round)
		viaPacked.BeginRound(round)
		for i, p := range peers {
			p.BeginRound(round)
			p.Exchange(peers[(i+1+round)%len(peers)])
			matrix := p.Emit(round, nil, func() (gossip.NodeID, bool) { return 0, true })[0].Payload.(*Counters).Ages
			packed, err := NewPacked(append(wire.AppendCounters(nil, matrix), 0xEE))
			if err != nil {
				t.Fatal(err)
			}
			viaMatrix.Receive(matrix)
			viaPacked.Receive(packed)
		}
		viaMatrix.EndRound(round)
		viaPacked.EndRound(round)
		if !bytes.Equal(viaPacked.counters, viaMatrix.counters) {
			t.Fatalf("round %d: packed Receive left %v, matrix Receive %v", round, viaPacked.counters, viaMatrix.counters)
		}
	}

	other, err := NewPacked(wire.AppendCounters(nil, make([]uint8, len(viaPacked.counters)+1)))
	if err != nil {
		t.Fatal(err)
	}
	before := bytes.Clone(viaPacked.counters)
	viaPacked.Receive(other)
	if !bytes.Equal(viaPacked.counters, before) {
		t.Error("a packed matrix of another shape was merged")
	}

	for name, src := range map[string][]byte{
		"empty":          nil,
		"zero elements":  {0},
		"zero run":       {2, 0, 9, 2, 9},
		"run overshoots": {2, 3, 9},
		"truncated":      {2, 1, 9},
		"too large":      wire.AppendCounters(nil, make([]uint8, MaxWireCounters+1)),
	} {
		if _, err := NewPacked(src); err == nil {
			t.Errorf("%s: NewPacked accepted it", name)
		}
	}
}
