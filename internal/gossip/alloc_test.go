package gossip_test

import (
	"runtime"
	"testing"
	"unsafe"

	"dynagg/internal/env"
	"dynagg/internal/gossip"
	"dynagg/internal/metrics"
	"dynagg/internal/protocol/epoch"
	"dynagg/internal/protocol/extremes"
	"dynagg/internal/protocol/pushsumrevert"
	"dynagg/internal/protocol/sketchcount"
	"dynagg/internal/protocol/sketchreset"
	"dynagg/internal/sketch"
	"dynagg/internal/stats"
	"dynagg/internal/trace"
)

// allocBudgetPerHostRound is the steady-state allocation budget of the
// zero-allocation message plane: at most 2 heap allocations per host
// per round. The real figure is ~0 — the shard outboxes that double as
// emission scratch and the pick closure are reused, and on one shard it
// is exactly 0 (see allocBudget) — but the budget leaves headroom
// for incidental runtime allocations (map rehashing, slice growth on
// population spikes) without letting a per-message regression through:
// re-boxing payloads alone would cost 2-3 allocs per host-round.
const allocBudgetPerHostRound = 2.0

// allocBudget is the budget for an engine of the given Config.Workers:
// one shard (0 or 1) runs every phase inline — no goroutine, and no
// closure, which would escape and be allocated per phase — so once its
// buffers have grown a round allocates exactly nothing.
func allocBudget(workers int) float64 {
	if workers <= 1 {
		return 0
	}
	return allocBudgetPerHostRound
}

// allocsPerHostRound builds an engine over n uniform-gossip hosts,
// warms it past the buffer-growth phase, and measures steady-state
// allocations of Engine.Step per host.
func allocsPerHostRound(t *testing.T, agents []gossip.Agent, model gossip.Model, workers int) float64 {
	t.Helper()
	n := len(agents)
	engine, err := gossip.NewEngine(gossip.Config{
		Env:     env.NewUniform(n),
		Agents:  agents,
		Model:   model,
		Seed:    3,
		Workers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Warm-up: scratch slices, snapshot buffers, and the outboxes grow
	// to their steady-state capacity during the first rounds.
	engine.Run(4)
	perStep := testing.AllocsPerRun(3, func() { engine.Step() })
	return perStep / float64(n)
}

// allocsPerHostRoundColumnar is the columnar twin of
// allocsPerHostRound: same warm-up, same steady-state measurement,
// struct-of-arrays execution path, either gossip model.
func allocsPerHostRoundColumnar(t *testing.T, col gossip.ColumnarAgent, model gossip.Model, workers int) float64 {
	t.Helper()
	n := col.Len()
	engine, err := gossip.NewEngine(gossip.Config{
		Env:      env.NewUniform(n),
		Columnar: col,
		Model:    model,
		Seed:     3,
		Workers:  workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	engine.Run(4)
	perStep := testing.AllocsPerRun(3, func() { engine.Step() })
	return perStep / float64(n)
}

// budgetCase is one row of the columnar allocation tests: the gossip
// models the protocol supports, its fan-out bound (the most messages
// one live host emits in a push round), and its constructor.
type budgetCase struct {
	models []gossip.Model
	fanout int
	mk     func() gossip.ColumnarAgent
}

// budgetCases returns every columnar protocol over n hosts, keyed by
// name.
func budgetCases(n int) map[string]budgetCase {
	values := make([]float64, n)
	for i := range values {
		values[i] = float64(i % 101)
	}
	srCfg := sketchreset.Config{
		Params:      sketch.Params{Bins: 16, Levels: 16},
		Identifiers: 1,
	}
	both := []gossip.Model{gossip.Push, gossip.PushPull}
	pushOnly := []gossip.Model{gossip.Push}
	revert := pushsumrevert.Config{Lambda: 0.02}
	return map[string]budgetCase{
		"pushsum": {both, 2, func() gossip.ColumnarAgent {
			return pushsumrevert.NewColumnar(values, pushsumrevert.Config{Lambda: 0})
		}},
		"pushsumrevert": {both, 2, func() gossip.ColumnarAgent {
			return pushsumrevert.NewColumnar(values, revert)
		}},
		"fulltransfer": {pushOnly, 4, func() gossip.ColumnarAgent {
			return pushsumrevert.NewColumnar(values, pushsumrevert.Config{Lambda: 0.1, FullTransfer: true, Parcels: 4, Window: 3})
		}},
		"sketchreset": {both, 1, func() gossip.ColumnarAgent {
			return sketchreset.NewColumnar(n, srCfg)
		}},
		"extremes": {both, 1, func() gossip.ColumnarAgent {
			return extremes.NewColumnar(values, extremes.Config{Mode: extremes.Max})
		}},
		"moments": {both, 2, func() gossip.ColumnarAgent {
			return pushsumrevert.NewColumnarMoments(values, revert)
		}},
		"epoch": {pushOnly, 2, func() gossip.ColumnarAgent {
			return epoch.NewColumnar(values, epoch.Config{Length: 8})
		}},
	}
}

// TestColumnarAllocBudget pins the columnar hot path to the same
// steady-state budget as the classic message plane, for every columnar
// protocol on every gossip model it supports: the flat-column round —
// including the push/pull pair batches — must not allocate once the
// first rounds have sized the emission column and the cross-shard
// slots, at any shard count — and exactly nothing on one shard.
func TestColumnarAllocBudget(t *testing.T) {
	for name, bc := range budgetCases(512) {
		for _, model := range bc.models {
			for _, workers := range []int{0, 1, 2} {
				got := allocsPerHostRoundColumnar(t, bc.mk(), model, workers)
				if budget := allocBudget(workers); got > budget {
					t.Errorf("%s %s workers=%d: %.3f allocs per host-round, budget %.1f",
						name, model, workers, got, budget)
				}
			}
		}
	}
}

// TestColumnarFirstRoundAllocs pins what a fresh engine's first push
// round allocates. On one shard that is the message column, reserved
// once by EmitRange at fan-out × live hosts, and nothing else. A kernel
// that grows the column by append from empty instead makes about a
// dozen mallocs and four times the column's bytes at this size. The
// race detector keeps slices.Grow's temporary, which doubles both
// readings, so the budget is two mallocs and twice the column. On k > 1
// shards every round also pays the fork-join's goroutines, so the first
// round may make what a steady round makes plus 3k² mallocs — each
// shard's column, its k − 1 cross-shard slots sized once from that
// round's own counts, and its count table — in the same bytes (slots
// grown by append from empty make several mallocs each). The slots
// hold at most one column between them, so there the race detector's
// temporary needs a third column.
func TestColumnarFirstRoundAllocs(t *testing.T) {
	const n = 4096
	msgBytes := uint64(unsafe.Sizeof(gossip.ColMsg{}))
	for name, bc := range budgetCases(n) {
		for _, workers := range []int{0, 1, 2, 4} {
			first, bytes, steady := roundAllocs(t, bc.mk(), workers)
			// The runtime's background goroutines (the scavenger, GC
			// workers) now and then allocate a few bytes inside the
			// window, so each reading is the least of three fresh engines.
			for range 2 {
				f, b, s := roundAllocs(t, bc.mk(), workers)
				first, bytes, steady = min(first, f), min(bytes, b), min(steady, s)
			}
			column := uint64(bc.fanout) * n * msgBytes
			mallocs, budget := uint64(2), 2*column
			if k := uint64(workers); k > 1 {
				mallocs = steady + 3*k*k
				if raceEnabled {
					budget += column
				}
			}
			if first > mallocs || bytes > budget {
				t.Errorf("%s workers=%d: first round made %d mallocs and %d B, budget %d and %d B",
					name, workers, first, bytes, mallocs, budget)
			}
		}
	}
}

// roundAllocs builds a push engine over col and returns the mallocs
// and bytes its first Step allocates, and the mallocs of a steady Step
// (its fifth).
func roundAllocs(t *testing.T, col gossip.ColumnarAgent, workers int) (first, bytes, steady uint64) {
	t.Helper()
	engine, err := gossip.NewEngine(gossip.Config{
		Env:      env.NewUniform(col.Len()),
		Columnar: col,
		Model:    gossip.Push,
		Seed:     3,
		Workers:  workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	step := func() (mallocs, bytes uint64) {
		var before, after runtime.MemStats
		runtime.GC() // a collection starting inside Step would count its own mallocs
		runtime.ReadMemStats(&before)
		engine.Step()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	first, bytes = step()
	engine.Run(3)
	steady, _ = step()
	return first, bytes, steady
}

// TestPushSumAllocBudget pins the Push-Sum hot path (Push-Sum-Revert
// at λ = 0): the paper's baseline protocol must gossip through the
// round engine without per-message heap traffic.
func TestPushSumAllocBudget(t *testing.T) {
	const n = 512
	for _, model := range []gossip.Model{gossip.Push, gossip.PushPull} {
		for _, workers := range []int{0, 1, 2} {
			agents := make([]gossip.Agent, n)
			for i := range agents {
				agents[i] = pushsumrevert.New(gossip.NodeID(i), float64(i%101),
					pushsumrevert.Config{Lambda: 0})
			}
			got := allocsPerHostRound(t, agents, model, workers)
			if budget := allocBudget(workers); got > budget {
				t.Errorf("%s workers=%d: %.3f allocs per host-round, budget %.1f",
					model, workers, got, budget)
			}
		}
	}
}

// TestSketchCountAllocBudget pins the Sketch-Count hot path: the
// per-round sketch snapshot must come from the reused per-host buffer,
// not a fresh clone.
func TestSketchCountAllocBudget(t *testing.T) {
	const n = 256
	params := sketch.Params{Bins: 16, Levels: 16}
	agents := make([]gossip.Agent, n)
	for i := range agents {
		agents[i] = sketchcount.NewCount(gossip.NodeID(i), params)
	}
	got := allocsPerHostRound(t, agents, gossip.Push, 0)
	if got > allocBudgetPerHostRound {
		t.Errorf("%.3f allocs per host-round, budget %.1f",
			got, allocBudgetPerHostRound)
	}
}

// TestSketchResetAllocBudget pins Count-Sketch-Reset, the paper's
// heaviest payload (the full m×L counter matrix per message).
func TestSketchResetAllocBudget(t *testing.T) {
	const n = 256
	agents := make([]gossip.Agent, n)
	for i := range agents {
		agents[i] = sketchreset.New(gossip.NodeID(i), sketchreset.Config{
			Params:      sketch.Params{Bins: 16, Levels: 16},
			Identifiers: 1,
		})
	}
	got := allocsPerHostRound(t, agents, gossip.Push, 0)
	if got > allocBudgetPerHostRound {
		t.Errorf("%.3f allocs per host-round, budget %.1f",
			got, allocBudgetPerHostRound)
	}
}

// TestDeviationHookAllocatesNothing pins the measurement hook every
// figure driver installs: on a classic engine, a round with
// metrics.DeviationHook attached allocates nothing once round 0 has
// grown the hook's estimate scratch (the series is pre-sized here, as
// its growth is the caller's). A per-round make in the hook — what
// Engine.Estimates costs — shows up as one allocation per round.
func TestDeviationHookAllocatesNothing(t *testing.T) {
	const n, rounds = 512, 64
	agents := make([]gossip.Agent, n)
	for i := range agents {
		agents[i] = pushsumrevert.New(gossip.NodeID(i), float64(i%101), pushsumrevert.Config{})
	}
	series := stats.Series{X: make([]float64, 0, rounds), Y: make([]float64, 0, rounds)}
	engine, err := gossip.NewEngine(gossip.Config{
		Env:        env.NewUniform(n),
		Agents:     agents,
		Model:      gossip.Push,
		Seed:       3,
		AfterRound: []gossip.Hook{metrics.DeviationHook(&series, func() float64 { return 50 }, (*gossip.Engine).EstimateOf)},
	})
	if err != nil {
		t.Fatal(err)
	}
	engine.Run(4) // the outbox and the hook's scratch reach capacity
	if got := testing.AllocsPerRun(rounds/2, func() { engine.Step() }); got != 0 {
		t.Errorf("%.2f allocations per round with DeviationHook attached, want 0", got)
	}
}

// readoutEngine builds a classic Count-Sketch-Reset engine over env
// whose hosts use cfg, with hooks attached.
func readoutEngine(t *testing.T, environment gossip.Environment, cfg sketchreset.Config, hooks ...gossip.Hook) *gossip.Engine {
	t.Helper()
	agents := make([]gossip.Agent, environment.Size())
	for i := range agents {
		agents[i] = sketchreset.New(gossip.NodeID(i), cfg)
	}
	engine, err := gossip.NewEngine(gossip.Config{
		Env: environment, Agents: agents, Model: gossip.PushPull, Seed: 3, AfterRound: hooks,
	})
	if err != nil {
		t.Fatal(err)
	}
	engine.Run(4) // the outbox and the hook's scratch reach capacity
	return engine
}

// TestReadoutDeviationHookAllocatesNothing is
// TestDeviationHookAllocatesNothing with the estimates read through a
// sketchreset.Readout other than the hosts' own, the way a cutoff sweep
// reads one simulation: the reader adds nothing per round.
func TestReadoutDeviationHookAllocatesNothing(t *testing.T) {
	const rounds = 64
	cfg := sketchreset.Config{Params: sketch.DefaultParams, Identifiers: 1}
	static := cfg
	static.NoDecay = true
	series := stats.Series{X: make([]float64, 0, rounds), Y: make([]float64, 0, rounds)}
	engine := readoutEngine(t, env.NewUniform(512), cfg,
		metrics.DeviationHook(&series, func() float64 { return 512 }, sketchreset.NewReadout(static).EstimateOf))
	if got := testing.AllocsPerRun(rounds/2, func() { engine.Step() }); got != 0 {
		t.Errorf("%.2f allocations per round with a Readout-driven DeviationHook attached, want 0", got)
	}
}

// TestReadoutGroupDeviationHookAddsNoAllocations pins the reader's
// share of GroupDeviationHook at zero. The hook itself allocates every
// sampled round (the trace environment rebuilds its group assignment),
// so the pin compares a Readout-driven hook with one reading through
// (*gossip.Engine).EstimateOf, sampling every round, against an engine
// with no hook at all, which allocates nothing.
func TestReadoutGroupDeviationHookAddsNoAllocations(t *testing.T) {
	const rounds = 64
	tr := trace.Generate(trace.Dataset1())
	cfg := sketchreset.Config{Params: sketch.DefaultParams, Identifiers: 1}
	slow := cfg
	slow.Cutoff = func(k int) float64 { return 14 + float64(k)/2 }
	perRound := func(read metrics.EstimateReader) float64 {
		tenv := env.NewTraceEnv(tr, 0, 0)
		var hooks []gossip.Hook
		if read != nil {
			series := stats.Series{X: make([]float64, 0, 2*rounds), Y: make([]float64, 0, 2*rounds)}
			hooks = append(hooks, metrics.GroupDeviationHook(&series, nil, tenv, make([]float64, tr.N), metrics.GroupSize, 1, read))
		}
		engine := readoutEngine(t, tenv, cfg, hooks...)
		return testing.AllocsPerRun(rounds/2, func() { engine.Step() })
	}
	if got := perRound(nil); got != 0 {
		t.Fatalf("%.2f allocations per round on the trace engine with no hook, want 0", got)
	}
	own, readout := perRound((*gossip.Engine).EstimateOf), perRound(sketchreset.NewReadout(slow).EstimateOf)
	if readout != own {
		t.Errorf("%.2f allocations per round with a Readout-driven GroupDeviationHook, %.2f reading through EstimateOf; the reader should add none", readout, own)
	}
}
