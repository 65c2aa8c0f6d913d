// Package gossip provides the round-based gossip simulation engine the
// paper's evaluation is built on ("Our simulator employs a common
// simplification used to analyze gossip protocols: simulation in
// rounds"). At every round each live host initiates one exchange with
// a peer chosen by the gossip environment; a push/pull round therefore
// costs at least 2n messages.
//
// The engine is deliberately deterministic: given the same seed,
// environment and protocol, every run produces byte-identical results.
// Each host owns a private split of the experiment PRNG, so host
// behaviour is independent of iteration order.
//
// There is one round executor (round.go): the hosts are split into
// Config.Workers contiguous shards and every phase of the round is run
// once per shard — inline for one shard, on k goroutines for k. It
// drives either backend: classic agents, one Agent value per host, or
// a columnar protocol owning the whole population's state as dense
// columns (columnar.go).
package gossip

import (
	"fmt"

	"dynagg/internal/xrand"
)

// NodeID identifies a simulated host, densely numbered from 0.
type NodeID int32

// Envelope is one protocol message in flight: a payload addressed to a
// destination host. Self-addressed envelopes are legal and common
// (Push-Sum sends half its mass to itself).
type Envelope struct {
	To      NodeID
	Payload any
}

// PeerPicker returns gossip partners for the emitting host this round.
// Each call draws an independent peer; ok is false when the
// environment offers no reachable peer (an isolated host).
type PeerPicker func() (NodeID, bool)

// Agent is one protocol instance running at one host under the push
// gossip model.
//
// The engine calls, every round, in order: BeginRound on every live
// agent; Emit on every live agent (collecting envelopes); Receive on
// the live recipient of every envelope, in ascending emitter order;
// EndRound on every live agent.
// Emission is computed entirely from state at the start of the round —
// agents must not apply received payloads until EndRound.
//
// Payload lifetime: a payload returned by Emit (or appended by
// EmitAppend) may alias agent-owned scratch memory and is valid until
// the agent's next BeginRound. Every consumer that reads a payload
// within that window — the round engine, an encoding transport, a
// self-delivery — uses it as it is; a holder that keeps one longer (an
// in-process queue, a delayed delivery, a recorded replay) detaches it
// first through Detacher.
type Agent interface {
	// BeginRound resets per-round state (such as the inbox).
	BeginRound(round int)
	// Emit returns this round's outgoing messages. pick draws peers
	// from the environment; rng is the host's private generator. The
	// returned slice and its payloads are valid until the agent's next
	// BeginRound.
	Emit(round int, rng *xrand.Rand, pick PeerPicker) []Envelope
	// Receive accepts one payload delivered during the current round.
	// A payload the protocol cannot use — another protocol's, or a
	// well-formed message of the wrong shape from a mis-configured
	// peer or a forged datagram — is ignored, one more way a radio
	// message can be lost; network input never reaches a panic.
	Receive(payload any)
	// EndRound folds the received payloads into the host state.
	EndRound(round int)
	// Estimate returns the host's current estimate of the aggregate;
	// ok is false before any estimate exists.
	Estimate() (value float64, ok bool)
}

// Detacher is implemented by a payload that may alias its emitter's
// scratch memory. Detach returns a copy of the same dynamic type that
// owns its memory, safe to keep past the emitter's next BeginRound. A
// payload that does not implement Detacher already owns its memory.
type Detacher interface {
	Detach() any
}

// Exchanger is implemented by agents that additionally support the
// push/pull model: an atomic pairwise exchange in which both ends
// update together (Karp et al.'s half-difference transfer for
// Push-Sum). Exchange must be symmetric in effect regardless of which
// side initiates.
type Exchanger interface {
	Agent
	Exchange(peer Exchanger)
}

// AppendEmitter is the allocation-free emission contract. Instead of
// returning a slice, the agent appends this round's envelopes onto an
// engine-owned scratch slice and returns it — exactly the
// append(dst, ...) idiom of the standard library. Its payloads have
// Emit's lifetime (see Agent); the two differ only in who owns the
// envelope slice.
//
// Agents implementing AppendEmitter must still implement Emit — the
// engine falls back to it for agents that don't implement this
// interface, so the Agent contract stays satisfiable unchanged. The
// protocol packages write the emission once, in EmitAppend, and derive
// Emit from it.
type AppendEmitter interface {
	Agent
	EmitAppend(dst []Envelope, round int, rng *xrand.Rand, pick PeerPicker) []Envelope
}

// Environment decides who can talk to whom and when, independent of
// the protocol ("Gossip protocols are distinct from gossip
// environments").
type Environment interface {
	// Size returns the total host population, dead or alive.
	Size() int
	// Alive reports whether the host participates in the given round.
	Alive(id NodeID, round int) bool
	// AliveRange sets dst[i] = Alive(lo+i, round) for every host of
	// [lo, hi): the round engine's liveness sample, one call per range.
	AliveRange(lo, hi, round int, dst []bool)
	// Pick draws one gossip partner for the host, or ok=false if the
	// host currently has no reachable peer.
	Pick(id NodeID, round int, rng *xrand.Rand) (NodeID, bool)
	// Advance is called once before each round so time-driven
	// environments (traces) can update their topology.
	Advance(round int)
}

// Model selects the gossip exchange pattern.
type Model int

const (
	// Push: each initiator sends state to its peer (and possibly to
	// itself); no reply within the round.
	Push Model = iota
	// PushPull: each initiation is an atomic pairwise exchange; both
	// ends observe each other's state. Requires agents implementing
	// Exchanger (or, on the columnar path, a ColExchanger protocol).
	PushPull
)

// String returns the model name.
func (m Model) String() string {
	switch m {
	case Push:
		return "push"
	case PushPull:
		return "push-pull"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// Hook is invoked by the engine around rounds; failure schedules and
// metrics recorders are hooks.
type Hook func(round int, e *Engine)

// Config assembles an engine.
type Config struct {
	Env    Environment
	Agents []Agent
	// Columnar selects the struct-of-arrays execution path: one
	// protocol value owning dense per-host state columns for the whole
	// population, run as flat loops instead of per-host interface
	// calls (see columnar.go). Mutually exclusive with Agents. The
	// push/pull model additionally requires the protocol to implement
	// ColExchanger (flat pair-batch exchanges). Results are
	// byte-identical to the classic path for the same seed.
	Columnar ColumnarAgent
	Model    Model
	Seed     uint64
	// Workers is the number of contiguous shards the one round executor
	// splits the hosts into (see round.go). 0 and 1 both mean one shard,
	// run inline on the caller's goroutine; k > 1 runs the same phases on
	// k goroutines (DefaultWorkers picks a GOMAXPROCS-sized count).
	// Results are byte-identical for every value: each host owns a
	// private PRNG split, push deliveries are merged in emitter order,
	// and push/pull exchanges run on the caller's goroutine, shard by
	// shard, in initiator order.
	Workers int
	// BeforeRound hooks run after Env.Advance but before any agent
	// acts, in registration order.
	BeforeRound []Hook
	// AfterRound hooks run after EndRound on all agents.
	AfterRound []Hook
}

// Engine drives a set of agents over an environment, one round at a
// time.
type Engine struct {
	env    Environment
	agents []Agent
	model  Model
	rngs   []xrand.Rand
	before []Hook
	after  []Hook

	round    int
	messages int64 // protocol payloads delivered (self-delivery included)
	contacts int64 // pairwise meetings (push/pull) or emissions (push)

	// emitters caches the AppendEmitter view of each agent (nil when
	// the agent only implements Emit), so the per-host hot path costs
	// an index load instead of an interface assertion. Nil on a
	// columnar engine.
	emitters []AppendEmitter

	// col is the columnar protocol and colEx its push/pull view (set
	// only when the model needs it); both nil when the engine runs
	// classic agents.
	col   ColumnarAgent
	colEx ColExchanger

	// alive is the round's liveness bitmap, sampled by the begin phase
	// (each shard's ColRound.Sample fills the shard's range).
	alive []bool

	// workers is what Workers reports; shards is the executor state,
	// max(workers, 1) of them.
	workers int
	shards  []shard
}

// NewEngine validates the configuration and builds an engine.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Env == nil {
		return nil, fmt.Errorf("gossip: Config.Env is nil")
	}
	if cfg.Model != Push && cfg.Model != PushPull {
		return nil, fmt.Errorf("gossip: unknown Config.Model %v", cfg.Model)
	}
	if cfg.Columnar != nil {
		if err := validateColumnar(cfg); err != nil {
			return nil, err
		}
	} else if len(cfg.Agents) != cfg.Env.Size() {
		return nil, fmt.Errorf("gossip: %d agents for environment of size %d",
			len(cfg.Agents), cfg.Env.Size())
	}
	if cfg.Model == PushPull {
		for i, a := range cfg.Agents {
			if _, ok := a.(Exchanger); !ok {
				return nil, fmt.Errorf("gossip: agent %d (%T) does not implement Exchanger required by push-pull", i, a)
			}
		}
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("gossip: Config.Workers must be >= 0, got %d", cfg.Workers)
	}
	n := cfg.Env.Size()
	// Per-host PRNG splits live in one flat block, 16 B per host: the
	// generators are hot on every peer pick, and a contiguous layout
	// keeps them cache-resident instead of scattered across the heap (at
	// N=1M this is also one allocation instead of a million).
	root := xrand.New(cfg.Seed)
	rngs := make([]xrand.Rand, n)
	for i := range rngs {
		rngs[i] = *root.Split(uint64(i))
	}
	// More shards than hosts would leave some of them empty.
	workers := cfg.Workers
	if n > 0 {
		workers = min(workers, n)
	}
	e := &Engine{
		env:     cfg.Env,
		agents:  cfg.Agents,
		model:   cfg.Model,
		rngs:    rngs,
		before:  cfg.BeforeRound,
		after:   cfg.AfterRound,
		col:     cfg.Columnar,
		alive:   make([]bool, n),
		workers: workers,
	}
	k := max(workers, 1)
	if e.col == nil {
		e.emitters = make([]AppendEmitter, n)
		for i, a := range cfg.Agents {
			if ae, ok := a.(AppendEmitter); ok {
				e.emitters[i] = ae
			}
		}
	} else if e.model == PushPull {
		e.colEx = cfg.Columnar.(ColExchanger) // checked by validateColumnar
	}
	e.newShards(k)
	return e, nil
}

// Workers returns the engine's shard count as configured — clamped to
// the population size, and 0 when Config.Workers was 0.
func (e *Engine) Workers() int { return e.workers }

// Round returns the number of completed rounds.
func (e *Engine) Round() int { return e.round }

// Messages returns the cumulative count of protocol payloads delivered.
func (e *Engine) Messages() int64 { return e.messages }

// Contacts returns the cumulative count of gossip contacts initiated.
func (e *Engine) Contacts() int64 { return e.contacts }

// Env returns the engine's environment.
func (e *Engine) Env() Environment { return e.env }

// Agent returns the agent at the given host. It panics on a columnar
// engine, which has no per-host agents; use EstimateOf or Columnar.
func (e *Engine) Agent(id NodeID) Agent { return e.agents[id] }

// Agents returns the full agent slice (shared, not copied). It is nil
// on a columnar engine.
func (e *Engine) Agents() []Agent { return e.agents }

// Rng returns host id's private generator (used by hooks that need
// reproducible randomness attributable to a host).
func (e *Engine) Rng(id NodeID) *xrand.Rand { return &e.rngs[id] }

// Step executes one gossip round.
func (e *Engine) Step() {
	r := e.round
	e.env.Advance(r)
	for _, h := range e.before {
		h(r, e)
	}
	if e.model == Push {
		e.pushRound()
	} else {
		e.pushPullRound()
	}
	for _, h := range e.after {
		h(r, e)
	}
	e.round++
}

// Run executes the given number of rounds.
func (e *Engine) Run(rounds int) {
	for i := 0; i < rounds; i++ {
		e.Step()
	}
}

// Estimates returns the current estimates of all live hosts in a fresh
// slice.
func (e *Engine) Estimates() []float64 {
	return e.AppendEstimates(make([]float64, 0, e.env.Size()))
}

// AppendEstimates appends the current estimates of all live hosts to
// dst and returns it — Estimates for callers that sample every round
// and keep their own scratch (dst[:0]) instead of allocating one.
func (e *Engine) AppendEstimates(dst []float64) []float64 {
	for id, n := 0, e.env.Size(); id < n; id++ {
		if v, ok := e.EstimateOf(NodeID(id)); ok {
			dst = append(dst, v)
		}
	}
	return dst
}

// EstimateOf returns host id's estimate if the host is alive and has
// one.
func (e *Engine) EstimateOf(id NodeID) (float64, bool) {
	if !e.env.Alive(id, e.round) {
		return 0, false
	}
	if e.col != nil {
		return e.col.Estimate(id)
	}
	return e.agents[id].Estimate()
}
