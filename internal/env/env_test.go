package env

import (
	"testing"
	"testing/quick"
	"time"

	"dynagg/internal/gossip"
	"dynagg/internal/trace"
	"dynagg/internal/xrand"
)

func TestPopulationLifecycle(t *testing.T) {
	p := NewPopulation(5)
	if p.Size() != 5 || p.AliveCount() != 5 {
		t.Fatalf("fresh population: size %d alive %d", p.Size(), p.AliveCount())
	}
	p.Fail(2)
	if p.Alive(2) {
		t.Error("host 2 alive after Fail")
	}
	if p.AliveCount() != 4 {
		t.Errorf("alive count %d, want 4", p.AliveCount())
	}
	p.Fail(2) // idempotent
	if p.AliveCount() != 4 {
		t.Errorf("double-fail changed count to %d", p.AliveCount())
	}
	p.Revive(2)
	if !p.Alive(2) || p.AliveCount() != 5 {
		t.Error("revive did not restore host 2")
	}
	p.Revive(2) // idempotent
	if p.AliveCount() != 5 {
		t.Errorf("double-revive changed count to %d", p.AliveCount())
	}
}

// Property: after any sequence of fails and revives, AliveIDs matches
// the Alive predicate exactly.
func TestPopulationConsistency(t *testing.T) {
	prop := func(ops []uint16) bool {
		const n = 32
		p := NewPopulation(n)
		want := make(map[gossip.NodeID]bool, n)
		for i := 0; i < n; i++ {
			want[gossip.NodeID(i)] = true
		}
		for _, op := range ops {
			id := gossip.NodeID(op % n)
			if op&0x8000 != 0 {
				p.Revive(id)
				want[id] = true
			} else {
				p.Fail(id)
				want[id] = false
			}
		}
		alive := 0
		for id, w := range want {
			if p.Alive(id) != w {
				return false
			}
			if w {
				alive++
			}
		}
		if p.AliveCount() != alive {
			return false
		}
		seen := make(map[gossip.NodeID]bool)
		for _, id := range p.AliveIDs() {
			if seen[id] || !want[id] {
				return false
			}
			seen[id] = true
		}
		return len(seen) == alive
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPickOtherNeverReturnsSelfOrDead(t *testing.T) {
	p := NewPopulation(10)
	for i := 0; i < 10; i += 2 {
		p.Fail(gossip.NodeID(i))
	}
	rng := xrand.New(1)
	for trial := 0; trial < 200; trial++ {
		id, ok := p.PickOther(3, rng)
		if !ok {
			t.Fatal("PickOther failed with live peers available")
		}
		if id == 3 {
			t.Fatal("PickOther returned self")
		}
		if !p.Alive(id) {
			t.Fatalf("PickOther returned dead host %d", id)
		}
	}
}

func TestPickOtherExhausted(t *testing.T) {
	p := NewPopulation(3)
	p.Fail(0)
	p.Fail(1)
	rng := xrand.New(1)
	if _, ok := p.PickOther(2, rng); ok {
		t.Error("PickOther succeeded with self as only live host")
	}
	p.Fail(2)
	if _, ok := p.PickOther(2, rng); ok {
		t.Error("PickOther succeeded with empty population")
	}
}

func TestUniformEnvironment(t *testing.T) {
	u := NewUniform(100)
	if u.Size() != 100 {
		t.Errorf("Size = %d", u.Size())
	}
	rng := xrand.New(2)
	counts := make(map[gossip.NodeID]int)
	for i := 0; i < 5000; i++ {
		id, ok := u.Pick(0, 0, rng)
		if !ok || id == 0 {
			t.Fatal("bad pick")
		}
		counts[id]++
	}
	// Every other host should be picked at least once in 5000 draws
	// (P[miss] ≈ (98/99)^5000 ≈ 1e-22).
	if len(counts) != 99 {
		t.Errorf("picked %d distinct peers, want 99", len(counts))
	}
	u.Advance(0) // no-op, must not panic
	u.Population.Fail(5)
	if u.Alive(5, 0) {
		t.Error("failed host reported alive")
	}
}

func TestGridGeometry(t *testing.T) {
	g := NewGrid(4, 3, 2)
	if g.Width() != 4 || g.Height() != 3 || g.Size() != 12 {
		t.Fatalf("grid geometry wrong: %dx%d size %d", g.Width(), g.Height(), g.Size())
	}
	// Torus neighbors of corner 0 = (0,0): (1,0)=1, (3,0)=3, (0,1)=4, (0,2)=8.
	nb := g.NeighborsOf(0)
	want := map[gossip.NodeID]bool{1: true, 3: true, 4: true, 8: true}
	if len(nb) != 4 {
		t.Fatalf("NeighborsOf(0) = %v", nb)
	}
	for _, id := range nb {
		if !want[id] {
			t.Errorf("unexpected neighbor %d", id)
		}
	}
}

func TestGridPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewGrid(0, 5) did not panic")
		}
	}()
	NewGrid(0, 5, 1)
}

func TestGridPickValid(t *testing.T) {
	g := NewGrid(8, 8, 4)
	rng := xrand.New(3)
	for trial := 0; trial < 500; trial++ {
		id, ok := g.Pick(10, 0, rng)
		if !ok {
			t.Fatal("Pick failed on healthy grid")
		}
		if id == 10 {
			t.Fatal("Pick returned self")
		}
		if int(id) < 0 || int(id) >= g.Size() {
			t.Fatalf("Pick returned out-of-range %d", id)
		}
	}
}

// Walk lengths follow P[d] ∝ 1/d²: d=1 should be drawn roughly four
// times as often as d=2.
func TestGridDistanceDistribution(t *testing.T) {
	g := NewGrid(32, 32, 8)
	rng := xrand.New(4)
	counts := make([]int, g.maxDist+1)
	const trials = 200000
	for i := 0; i < trials; i++ {
		counts[g.sampleDistance(rng)]++
	}
	ratio := float64(counts[1]) / float64(counts[2])
	if ratio < 3.5 || ratio > 4.5 {
		t.Errorf("P[d=1]/P[d=2] = %.2f, want ≈ 4", ratio)
	}
	ratio13 := float64(counts[1]) / float64(counts[3])
	if ratio13 < 8 || ratio13 > 10 {
		t.Errorf("P[d=1]/P[d=3] = %.2f, want ≈ 9", ratio13)
	}
}

func TestGridPickSurvivesSparsePopulation(t *testing.T) {
	g := NewGrid(6, 6, 3)
	// Kill everything except two far-apart hosts.
	for i := 0; i < g.Size(); i++ {
		if i != 0 && i != 21 {
			g.Population.Fail(gossip.NodeID(i))
		}
	}
	rng := xrand.New(5)
	id, ok := g.Pick(0, 0, rng)
	if !ok || id != 21 {
		t.Errorf("Pick on sparse grid = %d, %v; want 21, true", id, ok)
	}
	g.Population.Fail(21)
	if _, ok := g.Pick(0, 0, rng); ok {
		t.Error("Pick succeeded with one live host")
	}
}

func TestGridDefaultMaxDist(t *testing.T) {
	g := NewGrid(10, 4, 0)
	if g.maxDist != 5 {
		t.Errorf("default maxDist = %d, want max(10,4)/2 = 5", g.maxDist)
	}
	g1 := NewGrid(1, 1, 0)
	if g1.maxDist != 1 {
		t.Errorf("1x1 default maxDist = %d, want 1", g1.maxDist)
	}
}

// twoPhaseTrace builds a tiny trace: devices 0-1 linked for the first
// half, 1-2 linked for the second half.
func twoPhaseTrace() *trace.Trace {
	hour := time.Hour
	tr := &trace.Trace{
		Name:     "two-phase",
		N:        3,
		Duration: 2 * hour,
		Events: []trace.Event{
			{At: 0, A: 0, B: 1, Up: true},
			{At: hour, A: 0, B: 1, Up: false},
			{At: hour, A: 1, B: 2, Up: true},
		},
	}
	return tr
}

func TestTraceEnvBasics(t *testing.T) {
	tr := twoPhaseTrace()
	e := NewTraceEnv(tr, 30*time.Second, 10*time.Minute)
	if e.Size() != 3 {
		t.Fatalf("Size = %d", e.Size())
	}
	if e.Interval() != 30*time.Second {
		t.Errorf("Interval = %v", e.Interval())
	}
	wantRounds := int(tr.Duration / (30 * time.Second))
	if e.Rounds() != wantRounds {
		t.Errorf("Rounds = %d, want %d", e.Rounds(), wantRounds)
	}
}

func TestTraceEnvConnectivityFollowsTrace(t *testing.T) {
	tr := twoPhaseTrace()
	e := NewTraceEnv(tr, 30*time.Second, 10*time.Minute)
	rng := xrand.New(6)

	e.Advance(0) // t = 30s: link 0-1 up
	if id, ok := e.Pick(0, 0, rng); !ok || id != 1 {
		t.Errorf("round 0: Pick(0) = %d, %v; want 1, true", id, ok)
	}
	if _, ok := e.Pick(2, 0, rng); ok {
		t.Error("round 0: isolated device 2 found a peer")
	}

	// Advance into the second phase (past 1 hour).
	rounds := int(time.Hour/(30*time.Second)) + 1
	for r := 1; r <= rounds; r++ {
		e.Advance(r)
	}
	if id, ok := e.Pick(2, rounds, rng); !ok || id != 1 {
		t.Errorf("second phase: Pick(2) = %d, %v; want 1, true", id, ok)
	}
	if _, ok := e.Pick(0, rounds, rng); ok {
		t.Error("second phase: device 0 should be isolated")
	}
}

func TestTraceEnvGroups(t *testing.T) {
	tr := twoPhaseTrace()
	e := NewTraceEnv(tr, 30*time.Second, 5*time.Minute)
	e.Advance(0)
	asg := e.Groups()
	if asg.GroupOf(0) != asg.GroupOf(1) {
		t.Error("linked devices 0,1 in different groups")
	}
	if asg.GroupOf(0) == asg.GroupOf(2) {
		t.Error("isolated device 2 grouped with 0")
	}
}

func TestTraceEnvDefaults(t *testing.T) {
	tr := twoPhaseTrace()
	e := NewTraceEnv(tr, 0, 0)
	if e.Interval() != 30*time.Second {
		t.Errorf("default interval = %v, want 30s (the paper's gossip period)", e.Interval())
	}
}

func TestTraceEnvDegreeAndNeighbors(t *testing.T) {
	tr := twoPhaseTrace()
	e := NewTraceEnv(tr, 30*time.Second, 10*time.Minute)
	e.Advance(0)
	if d := e.Degree(0); d != 1 {
		t.Errorf("Degree(0) = %d, want 1", d)
	}
}
