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
// the recipient of every envelope; EndRound on every live agent.
// Emission is computed entirely from state at the start of the round —
// agents must not apply received payloads until EndRound.
type Agent interface {
	// BeginRound resets per-round state (such as the inbox).
	BeginRound(round int)
	// Emit returns this round's outgoing messages. pick draws peers
	// from the environment; rng is the host's private generator.
	Emit(round int, rng *xrand.Rand, pick PeerPicker) []Envelope
	// Receive accepts one payload delivered during the current round.
	Receive(payload any)
	// EndRound folds the received payloads into the host state.
	EndRound(round int)
	// Estimate returns the host's current estimate of the aggregate;
	// ok is false before any estimate exists.
	Estimate() (value float64, ok bool)
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
// returning a freshly allocated slice, the agent appends this round's
// envelopes onto an engine-owned scratch slice and returns it —
// exactly the append(dst, ...) idiom of the standard library.
//
// Payload lifetime is the difference from Emit: payloads appended by
// EmitAppend may alias agent-owned scratch memory (a per-host Mass
// field, a reused snapshot buffer) and are only valid until the
// agent's next BeginRound. The round engine delivers every message
// within the emitting round, so it can use EmitAppend everywhere; the
// asynchronous live engine cannot (messages cross tick boundaries in
// channels) and keeps calling Emit, whose payloads must have
// independent lifetime.
//
// Agents implementing AppendEmitter must still implement Emit; the
// engine's adapter falls back to it for agents that don't implement
// this interface, so the Agent contract stays satisfiable unchanged.
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
	// Workers selects the round executor. 0 runs the original
	// sequential loop; k >= 1 runs the sharded parallel executor with
	// k workers (DefaultWorkers picks a GOMAXPROCS-sized pool). Both
	// executors produce byte-identical results for the same seed:
	// every host owns a private PRNG split, push deliveries are merged
	// in emitter order, and push/pull exchanges follow a deterministic
	// conflict schedule equivalent to initiator order.
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
	rngs   []*xrand.Rand
	before []Hook
	after  []Hook

	round    int
	messages int64 // protocol payloads delivered (self-delivery included)
	contacts int64 // pairwise meetings (push/pull) or emissions (push)

	// emitters caches the AppendEmitter view of each agent (nil when
	// the agent only implements Emit), so the per-host hot path costs
	// an index load instead of an interface assertion.
	emitters []AppendEmitter

	// Flat arena inbox, reused across rounds (sequential push path).
	// Emissions land in pending in emitter order; a stable bucket sort
	// by destination rebuilds arena each round, with host id's segment
	// at arena[offsets[id]:offsets[id]+counts[id]] — still in emitter
	// order, exactly the delivery sequence the old per-host inboxes
	// produced, but with zero steady-state allocation.
	pending []Envelope
	arena   []Envelope
	counts  []int32
	offsets []int32
	cursor  []int32

	// pick is the reusable peer-picker closure handed to agents in the
	// sequential executor; pickID/pickRound are its captured state,
	// rewritten per host instead of allocating a closure per host.
	pick      PeerPicker
	pickID    NodeID
	pickRound int

	// Columnar path state: the bulk protocol (and its push/pull view,
	// set only when the model needs it), the reusable round context of
	// the sequential executor, the per-round liveness bitmap shared by
	// all columnar executors, and the reusable sequential push/pull
	// pair batch. All nil/empty when the engine runs classic agents.
	col      ColumnarAgent
	colEx    ColExchanger
	colRound ColRound
	colAlive []bool
	colPairs []Pair

	// par holds the sharded executor state; nil in sequential mode.
	par *parExec
}

// NewEngine validates the configuration and builds an engine.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Env == nil {
		return nil, fmt.Errorf("gossip: Config.Env is nil")
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
	// Per-host PRNG splits live in one flat block: the generators are
	// hot on every peer pick, and a contiguous layout keeps them
	// cache-resident instead of scattered across the heap (at N=1M
	// this is also one allocation instead of a million).
	root := xrand.New(cfg.Seed)
	store := make([]xrand.Rand, n)
	rngs := make([]*xrand.Rand, n)
	for i := range rngs {
		store[i] = *root.Split(uint64(i))
		rngs[i] = &store[i]
	}
	e := &Engine{
		env:    cfg.Env,
		agents: cfg.Agents,
		model:  cfg.Model,
		rngs:   rngs,
		before: cfg.BeforeRound,
		after:  cfg.AfterRound,
		col:    cfg.Columnar,
	}
	if e.col != nil {
		e.colAlive = make([]bool, n)
		e.colRound = ColRound{Model: e.model, env: e.env, rngs: e.rngs}
		if e.model == PushPull {
			e.colEx = cfg.Columnar.(ColExchanger) // checked by validateColumnar
		}
	} else {
		e.emitters = make([]AppendEmitter, n)
		e.counts = make([]int32, n)
		e.offsets = make([]int32, n)
		e.cursor = make([]int32, n)
		for i, a := range cfg.Agents {
			if ae, ok := a.(AppendEmitter); ok {
				e.emitters[i] = ae
			}
		}
		e.pick = func() (NodeID, bool) {
			return e.env.Pick(e.pickID, e.pickRound, e.rngs[e.pickID])
		}
	}
	if cfg.Workers > 0 {
		e.par = newParExec(e, n, cfg.Workers)
	}
	return e, nil
}

// emitInto collects host id's emissions for round r onto dst: through
// EmitAppend when the agent supports it, otherwise through the Emit
// adapter (one slice + payload boxing per call, the legacy cost).
func (e *Engine) emitInto(dst []Envelope, id int, r int, pick PeerPicker) []Envelope {
	rng := e.rngs[id]
	if ae := e.emitters[id]; ae != nil {
		return ae.EmitAppend(dst, r, rng, pick)
	}
	return append(dst, e.agents[id].Emit(r, rng, pick)...)
}

// Workers returns the size of the engine's worker pool; 0 means the
// sequential executor.
func (e *Engine) Workers() int {
	if e.par == nil {
		return 0
	}
	return e.par.workers
}

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
func (e *Engine) Rng(id NodeID) *xrand.Rand { return e.rngs[id] }

// Step executes one gossip round.
func (e *Engine) Step() {
	r := e.round
	e.env.Advance(r)
	for _, h := range e.before {
		h(r, e)
	}
	switch {
	case e.col != nil && e.model == PushPull && e.par != nil:
		e.stepPushPullColumnarParallel(r)
	case e.col != nil && e.model == PushPull:
		e.stepPushPullColumnar(r)
	case e.col != nil && e.par != nil:
		e.stepPushColumnarParallel(r)
	case e.col != nil:
		e.stepPushColumnar(r)
	case e.par != nil && e.model == Push:
		e.stepPushParallel(r)
	case e.par != nil && e.model == PushPull:
		e.stepPushPullParallel(r)
	case e.model == Push:
		e.stepPush(r)
	case e.model == PushPull:
		e.stepPushPull(r)
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

func (e *Engine) stepPush(r int) {
	n := len(e.agents)
	for id := 0; id < n; id++ {
		if e.env.Alive(NodeID(id), r) {
			e.agents[id].BeginRound(r)
		}
	}
	// Collect all emissions before delivering anything: the round is
	// synchronous, so every message is computed from start-of-round
	// state. Emissions accumulate in the flat pending buffer (emitter
	// order); messages to dead hosts are dropped here, silently — that
	// is the point of the dynamic protocols.
	pending := e.pending[:0]
	counts := e.counts
	for i := range counts {
		counts[i] = 0
	}
	e.pickRound = r
	for id := 0; id < n; id++ {
		nid := NodeID(id)
		if !e.env.Alive(nid, r) {
			continue
		}
		e.pickID = nid
		start := len(pending)
		pending = e.emitInto(pending, id, r, e.pick)
		e.contacts++
		kept := start
		for _, env := range pending[start:] {
			e.messages++
			if e.env.Alive(env.To, r) {
				pending[kept] = env
				counts[env.To]++
				kept++
			}
		}
		pending = pending[:kept]
	}
	e.pending = pending
	// Bucket sort by destination into the arena: offsets are prefix
	// sums of per-host counts, and a stable scatter keeps each host's
	// segment in emitter order.
	offsets, cursor := e.offsets, e.cursor
	var sum int32
	for i, c := range counts {
		offsets[i] = sum
		cursor[i] = sum
		sum += c
	}
	arena := e.arena
	if cap(arena) < len(pending) {
		arena = make([]Envelope, len(pending))
	} else {
		arena = arena[:len(pending)]
	}
	for _, env := range pending {
		arena[cursor[env.To]] = env
		cursor[env.To]++
	}
	e.arena = arena
	for id := 0; id < n; id++ {
		box := arena[offsets[id]:cursor[id]]
		if len(box) == 0 {
			continue
		}
		if e.env.Alive(NodeID(id), r) {
			for _, env := range box {
				e.agents[id].Receive(env.Payload)
			}
		}
	}
	for id := 0; id < n; id++ {
		if e.env.Alive(NodeID(id), r) {
			e.agents[id].EndRound(r)
		}
	}
}

func (e *Engine) stepPushPull(r int) {
	n := len(e.agents)
	for id := 0; id < n; id++ {
		if e.env.Alive(NodeID(id), r) {
			e.agents[id].BeginRound(r)
		}
	}
	for id := 0; id < n; id++ {
		nid := NodeID(id)
		if !e.env.Alive(nid, r) {
			continue
		}
		peer, ok := e.env.Pick(nid, r, e.rngs[id])
		if !ok {
			continue
		}
		e.contacts++
		e.messages += 2 // state travels both ways
		a := e.agents[id].(Exchanger)
		b := e.agents[peer].(Exchanger)
		a.Exchange(b)
	}
	for id := 0; id < n; id++ {
		if e.env.Alive(NodeID(id), r) {
			e.agents[id].EndRound(r)
		}
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
