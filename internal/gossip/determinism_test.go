package gossip_test

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dynagg/internal/env"
	"dynagg/internal/failure"
	"dynagg/internal/gossip"
	"dynagg/internal/protocol/extremes"
	"dynagg/internal/protocol/pushsumrevert"
	"dynagg/internal/protocol/sketchreset"
	"dynagg/internal/sketch"
)

// fingerprint captures everything the determinism contract promises:
// the exact bit pattern of every host's estimate plus the engine's
// message and contact counters.
type fingerprint struct {
	estimates []uint64
	messages  int64
	contacts  int64
}

func runFingerprint(t *testing.T, protocol string, model gossip.Model, n, rounds, workers int) fingerprint {
	t.Helper()
	environment := env.NewUniform(n)
	agents := make([]gossip.Agent, n)
	for i := range agents {
		id := gossip.NodeID(i)
		switch protocol {
		case "pushsum":
			agents[i] = pushsumrevert.New(id, float64(i%97), pushsumrevert.Config{PushPull: model == gossip.PushPull})
		case "sketchreset":
			agents[i] = sketchreset.New(id, sketchreset.Config{
				Params:      sketch.Params{Bins: 8, Levels: 12},
				Identifiers: 1,
			})
		case "extremes":
			agents[i] = extremes.New(id, float64((i*31)%n), extremes.Config{Mode: extremes.Max})
		default:
			t.Fatalf("unknown protocol %q", protocol)
		}
	}
	engine, err := gossip.NewEngine(gossip.Config{
		Env:     environment,
		Agents:  agents,
		Model:   model,
		Seed:    7,
		Workers: workers,
		// Kill a third of the population mid-run so dead-host skipping
		// and lost messages are exercised in both executors.
		BeforeRound: []gossip.Hook{
			failure.RandomAt(rounds/2, 0.33, environment.Population, 11),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	engine.Run(rounds)
	fp := fingerprint{messages: engine.Messages(), contacts: engine.Contacts()}
	for _, a := range agents {
		v, ok := a.Estimate()
		if !ok {
			v = math.Inf(-1)
		}
		fp.estimates = append(fp.estimates, math.Float64bits(v))
	}
	return fp
}

// TestParallelMatchesSequential asserts that the sharded executor
// (Workers = 1, 4, 8) produces byte-identical estimates, message
// counts, and contact counts to the sequential executor (Workers = 0)
// across both gossip models and three protocols. The population is
// deliberately not a multiple of the worker counts so shard boundaries
// are uneven.
func TestParallelMatchesSequential(t *testing.T) {
	const (
		n      = 403
		rounds = 16
	)
	for _, protocol := range []string{"pushsum", "sketchreset", "extremes"} {
		for _, model := range []gossip.Model{gossip.Push, gossip.PushPull} {
			t.Run(fmt.Sprintf("%s/%s", protocol, model), func(t *testing.T) {
				want := runFingerprint(t, protocol, model, n, rounds, 0)
				for _, workers := range []int{1, 4, 8} {
					got := runFingerprint(t, protocol, model, n, rounds, workers)
					if got.messages != want.messages {
						t.Errorf("workers=%d: Messages = %d, sequential %d", workers, got.messages, want.messages)
					}
					if got.contacts != want.contacts {
						t.Errorf("workers=%d: Contacts = %d, sequential %d", workers, got.contacts, want.contacts)
					}
					for i := range want.estimates {
						if got.estimates[i] != want.estimates[i] {
							t.Errorf("workers=%d: host %d estimate bits %#x, sequential %#x",
								workers, i, got.estimates[i], want.estimates[i])
							break
						}
					}
				}
			})
		}
	}
}

// TestParallelWorkersExceedHosts covers the clamp path: more workers
// than hosts must still be deterministic and correct, and
// Engine.Workers must report the clamped pool size.
func TestParallelWorkersExceedHosts(t *testing.T) {
	environment := env.NewUniform(5)
	agents := make([]gossip.Agent, 5)
	for i := range agents {
		agents[i] = pushsumrevert.New(gossip.NodeID(i), float64(i), pushsumrevert.Config{})
	}
	engine, err := gossip.NewEngine(gossip.Config{Env: environment, Agents: agents, Workers: 32})
	if err != nil {
		t.Fatal(err)
	}
	if got := engine.Workers(); got != 5 {
		t.Errorf("Workers() = %d, want pool clamped to 5 hosts", got)
	}
	sequential, err := gossip.NewEngine(gossip.Config{Env: environment, Agents: agents})
	if err != nil {
		t.Fatal(err)
	}
	if got := sequential.Workers(); got != 0 {
		t.Errorf("Workers() = %d on sequential engine, want 0", got)
	}

	want := runFingerprint(t, "pushsum", gossip.Push, 5, 8, 0)
	got := runFingerprint(t, "pushsum", gossip.Push, 5, 8, 32)
	for i := range want.estimates {
		if got.estimates[i] != want.estimates[i] {
			t.Fatalf("host %d estimate differs with clamped workers", i)
		}
	}
	if got.messages != want.messages || got.contacts != want.contacts {
		t.Fatalf("counters differ: got (%d, %d), want (%d, %d)",
			got.messages, got.contacts, want.messages, want.contacts)
	}
}

// TestNegativeWorkersRejected pins the validation contract.
func TestNegativeWorkersRejected(t *testing.T) {
	environment := env.NewUniform(2)
	agents := []gossip.Agent{
		pushsumrevert.New(0, 1, pushsumrevert.Config{}),
		pushsumrevert.New(1, 2, pushsumrevert.Config{}),
	}
	_, err := gossip.NewEngine(gossip.Config{Env: environment, Agents: agents, Workers: -1})
	if err == nil {
		t.Fatal("negative Workers accepted")
	}
}

// pairRecorder is a columnar push/pull protocol with no state: it
// records every ExchangePairs batch, per round, and notes any call
// that starts while another is still running.
type pairRecorder struct {
	n        int
	mu       sync.Mutex
	rounds   [][]gossip.Pair // rounds[r]: round r's batches, concatenated
	inFlight atomic.Int32
	overlap  atomic.Bool
}

func (p *pairRecorder) Len() int                                  { return p.n }
func (p *pairRecorder) BeginRange(*gossip.ColRound, int, int)     {}
func (p *pairRecorder) EmitRange(*gossip.ColRound, int, int)      {}
func (p *pairRecorder) Deliver(*gossip.ColRound, []gossip.ColMsg) {}
func (p *pairRecorder) EndRange(*gossip.ColRound, int, int)       {}
func (p *pairRecorder) Estimate(gossip.NodeID) (float64, bool)    { return 0, false }
func (p *pairRecorder) ExchangePairs(rc *gossip.ColRound, pairs []gossip.Pair) {
	if p.inFlight.Add(1) > 1 {
		p.overlap.Store(true)
	}
	defer p.inFlight.Add(-1)
	// Hold the call open a moment, so a concurrent one would be seen.
	time.Sleep(50 * time.Microsecond)
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.rounds) <= rc.Round {
		p.rounds = append(p.rounds, nil)
	}
	p.rounds[rc.Round] = append(p.rounds[rc.Round], pairs...)
}

// TestPushPullBatchesMatchAcrossWorkers pins the ColExchanger batch
// contract at every shard count: a round's ExchangePairs batches,
// concatenated, are the one-shard sequence (initiator order, endpoints
// shared freely), and no two calls ever run at once.
func TestPushPullBatchesMatchAcrossWorkers(t *testing.T) {
	const (
		n      = 403
		rounds = 8
	)
	record := func(workers int) *pairRecorder {
		environment := env.NewUniform(n)
		rec := &pairRecorder{n: n}
		engine, err := gossip.NewEngine(gossip.Config{
			Env:      environment,
			Columnar: rec,
			Model:    gossip.PushPull,
			Seed:     7,
			Workers:  workers,
			BeforeRound: []gossip.Hook{
				failure.RandomAt(rounds/2, 0.33, environment.Population, 11),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		engine.Run(rounds)
		return rec
	}
	want := record(0)
	if len(want.rounds) != rounds {
		t.Fatalf("workers=0: batches in %d rounds, want %d", len(want.rounds), rounds)
	}
	for r, pairs := range want.rounds {
		if !slices.IsSortedFunc(pairs, func(a, b gossip.Pair) int { return int(a.A) - int(b.A) }) {
			t.Fatalf("workers=0: round %d's pairs are not in initiator order", r)
		}
	}
	for _, workers := range []int{1, 4, 8} {
		got := record(workers)
		if got.overlap.Load() {
			t.Errorf("workers=%d: ExchangePairs calls overlapped", workers)
		}
		if len(got.rounds) != len(want.rounds) {
			t.Fatalf("workers=%d: batches in %d rounds, want %d", workers, len(got.rounds), len(want.rounds))
		}
		for r := range want.rounds {
			if !slices.Equal(got.rounds[r], want.rounds[r]) {
				t.Errorf("workers=%d: round %d's batches differ from the one-shard sequence", workers, r)
			}
		}
	}
}
