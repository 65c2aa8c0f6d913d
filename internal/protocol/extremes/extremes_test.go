package extremes

import (
	"testing"
	"testing/quick"

	"dynagg/internal/env"
	"dynagg/internal/gossip"
)

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}
	if err := (Config{Cutoff: -1}).Validate(); err == nil {
		t.Error("negative cutoff accepted")
	}
	if err := (Config{TableSize: -1}).Validate(); err == nil {
		t.Error("negative table size accepted")
	}
	if err := (Config{Mode: Mode(9)}).Validate(); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestModeString(t *testing.T) {
	if Max.String() != "max" || Min.String() != "min" {
		t.Error("mode names wrong")
	}
}

func build(t *testing.T, values []float64, cfg Config, model gossip.Model, seed uint64) (*gossip.Engine, *env.Uniform) {
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

func TestMaxFloods(t *testing.T) {
	const n = 500
	values := make([]float64, n)
	for i := range values {
		values[i] = float64(i)
	}
	engine, _ := build(t, values, Config{Mode: Max}, gossip.PushPull, 1)
	engine.Run(20)
	for id, a := range engine.Agents() {
		est, ok := a.Estimate()
		if !ok || est != n-1 {
			t.Fatalf("host %d max estimate %v, %v; want %d", id, est, ok, n-1)
		}
	}
}

func TestMinFloods(t *testing.T) {
	const n = 500
	values := make([]float64, n)
	for i := range values {
		values[i] = float64(i + 10)
	}
	engine, _ := build(t, values, Config{Mode: Min}, gossip.PushPull, 2)
	engine.Run(20)
	for id, a := range engine.Agents() {
		est, ok := a.Estimate()
		if !ok || est != 10 {
			t.Fatalf("host %d min estimate %v, %v; want 10", id, est, ok)
		}
	}
}

// The headline dynamic behaviour: when the maximum's owner departs,
// every host's estimate falls back to the runner-up within cutoff +
// flood time.
func TestMaxAgesOutAfterOwnerDeparts(t *testing.T) {
	const n = 300
	values := make([]float64, n)
	for i := range values {
		values[i] = float64(i)
	}
	cfg := Config{Mode: Max, Cutoff: 15}
	engine, e := build(t, values, cfg, gossip.PushPull, 3)
	engine.Run(20)
	// Kill the top three hosts at once.
	e.Population.Fail(gossip.NodeID(n - 1))
	e.Population.Fail(gossip.NodeID(n - 2))
	e.Population.Fail(gossip.NodeID(n - 3))
	engine.Run(45)
	for id, a := range engine.Agents() {
		if !e.Population.Alive(gossip.NodeID(id)) {
			continue
		}
		est, ok := a.Estimate()
		if !ok || est != n-4 {
			t.Fatalf("host %d estimate %v, %v after departures; want %d", id, est, ok, n-4)
		}
	}
}

func TestMinAgesOutAfterOwnerDeparts(t *testing.T) {
	const n = 300
	values := make([]float64, n)
	for i := range values {
		values[i] = float64(i)
	}
	cfg := Config{Mode: Min, Cutoff: 15}
	engine, e := build(t, values, cfg, gossip.PushPull, 4)
	engine.Run(20)
	e.Population.Fail(0)
	engine.Run(45)
	for id, a := range engine.Agents() {
		if !e.Population.Alive(gossip.NodeID(id)) {
			continue
		}
		est, _ := a.Estimate()
		if est != 1 {
			t.Fatalf("host %d min estimate %v after owner departed; want 1", id, est)
		}
	}
}

// A joining host with a new extremum takes over.
func TestJoinRaisesMax(t *testing.T) {
	const n = 200
	values := make([]float64, n)
	for i := range values {
		values[i] = float64(i)
	}
	// Host n-1 has the future maximum but starts dead.
	values[n-1] = 1e6
	engine, e := build(t, values, Config{Mode: Max}, gossip.PushPull, 5)
	e.Population.Fail(gossip.NodeID(n - 1))
	engine.Run(15)
	if est, _ := engine.EstimateOf(0); est != n-2 {
		t.Fatalf("pre-join estimate %v, want %d", est, n-2)
	}
	e.Population.Revive(gossip.NodeID(n - 1))
	engine.Run(15)
	if est, _ := engine.EstimateOf(0); est != 1e6 {
		t.Errorf("post-join estimate %v, want 1e6", est)
	}
}

func TestOwnEntryAlwaysPresent(t *testing.T) {
	n := New(7, 3.5, Config{Mode: Max, Cutoff: 2})
	for r := 0; r < 20; r++ {
		n.BeginRound(r)
		n.EndRound(r)
	}
	if est, ok := n.Estimate(); !ok || est != 3.5 {
		t.Errorf("isolated estimate %v, %v; want own value 3.5", est, ok)
	}
	best := n.Best()
	if best.Owner != 7 || best.Age != 0 {
		t.Errorf("best = %+v, want own pinned entry", best)
	}
}

func TestTableBounded(t *testing.T) {
	cfg := Config{Mode: Max, TableSize: 4}
	n := New(0, 0, cfg)
	var incoming []Candidate
	for i := 1; i <= 50; i++ {
		incoming = append(incoming, Candidate{Value: float64(i), Owner: gossip.NodeID(i), Age: 0})
	}
	n.Receive(&Table{Candidates: incoming})
	if got := len(n.Table()); got > 4 {
		t.Errorf("table size %d, want <= 4", got)
	}
	if best := n.Best(); best.Value != 50 {
		t.Errorf("best value %v, want 50", best.Value)
	}
}

// Merge properties: receive is idempotent and order-insensitive.
func TestReceiveIdempotentOrderInsensitive(t *testing.T) {
	prop := func(rawA, rawB []uint8) bool {
		mk := func(raw []uint8) *Table {
			var out []Candidate
			for i, r := range raw {
				if i >= 6 {
					break
				}
				owner := gossip.NodeID(r%20 + 1)
				// A host's value is immutable, so any two candidates
				// with the same owner must carry the same value.
				out = append(out, Candidate{
					Value: float64(owner) * 3,
					Owner: owner,
					Age:   int32(r % 10),
				})
			}
			return &Table{Candidates: out}
		}
		a, b := mk(rawA), mk(rawB)

		n1 := New(0, 25, Config{Mode: Max})
		n1.Receive(a)
		n1.Receive(b)
		n1.Receive(b) // duplicate

		n2 := New(0, 25, Config{Mode: Max})
		n2.Receive(b)
		n2.Receive(a)

		t1, t2 := n1.Table(), n2.Table()
		if len(t1) != len(t2) {
			return false
		}
		for i := range t1 {
			if t1[i] != t2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestExchangeSymmetric(t *testing.T) {
	a := New(0, 10, Config{Mode: Max})
	b := New(1, 20, Config{Mode: Max})
	a.Exchange(b)
	ea, _ := a.Estimate()
	eb, _ := b.Estimate()
	if ea != 20 || eb != 20 {
		t.Errorf("estimates after exchange = %v, %v; want 20, 20", ea, eb)
	}
	// Both tables contain both candidates.
	if len(a.Table()) != 2 || len(b.Table()) != 2 {
		t.Errorf("table sizes %d, %d; want 2, 2", len(a.Table()), len(b.Table()))
	}
}

// The push model floods and ages out too: Emit sends the table to one
// random peer per round.
func TestPushModelFloodsAndHeals(t *testing.T) {
	const n = 300
	values := make([]float64, n)
	for i := range values {
		values[i] = float64(i)
	}
	engine, e := build(t, values, Config{Mode: Max, Cutoff: 20}, gossip.Push, 6)
	engine.Run(25)
	for id, a := range engine.Agents() {
		if est, _ := a.Estimate(); est != n-1 {
			t.Fatalf("host %d push-model max %v, want %d", id, est, n-1)
		}
	}
	e.Population.Fail(gossip.NodeID(n - 1))
	engine.Run(60)
	healed := 0
	for id, a := range engine.Agents() {
		if !e.Population.Alive(gossip.NodeID(id)) {
			continue
		}
		if est, _ := a.Estimate(); est == n-2 {
			healed++
		}
	}
	// Push-only flooding is slower than push/pull; require the large
	// majority healed rather than every host.
	if healed < (n-1)*9/10 {
		t.Errorf("only %d/%d hosts healed under push model", healed, n-1)
	}
}

func TestAccessorsAndIsolatedEmit(t *testing.T) {
	node := New(4, 2.5, Config{Mode: Min})
	if node.ID() != 4 {
		t.Errorf("ID = %d", node.ID())
	}
	if node.Value() != 2.5 {
		t.Errorf("Value = %v", node.Value())
	}
	// An isolated host emits nothing.
	if envs := node.Emit(0, nil, func() (gossip.NodeID, bool) { return 0, false }); len(envs) != 0 {
		t.Errorf("isolated Emit = %v", envs)
	}
	// A connected host sends exactly its table.
	envs := node.Emit(0, nil, func() (gossip.NodeID, bool) { return 9, true })
	if len(envs) != 1 || envs[0].To != 9 {
		t.Fatalf("Emit = %+v", envs)
	}
	sent := envs[0].Payload.(*Table).Candidates
	if len(sent) != 1 || sent[0].Owner != 4 {
		t.Errorf("payload = %+v", sent)
	}
}

func TestTieBreakDeterministic(t *testing.T) {
	a := New(0, 5, Config{Mode: Max})
	a.Receive(&Table{Candidates: []Candidate{{Value: 5, Owner: 9, Age: 0}}})
	if best := a.Best(); best.Owner != 0 {
		t.Errorf("tie broke to owner %d, want 0 (lowest id)", best.Owner)
	}
}
