package live

import (
	"fmt"
	"sync"
	"sync/atomic"

	"dynagg/internal/gossip"
	"dynagg/internal/xrand"
)

// Population is the engine's host-state backend: who the hosts are,
// how one tick of a host shard executes, and how estimates are read
// back. The two implementations are AgentPopulation (one boxed
// gossip.Agent per host — the engine's original form) and
// ColumnarPopulation (dense columns driven per shard).
//
// The interface is sealed: its working methods are unexported, so
// implementations live in this package and the engine can hand them
// internal state without exposing it. Callers only construct
// (NewAgentPopulation, NewColumnarPopulation), pass to Config, and
// inspect via Hosts.
type Population interface {
	// Hosts returns the number of hosts this population drives (the
	// Span width for a partial engine, the environment size
	// otherwise).
	Hosts() int

	// bind validates the population against the engine's configuration
	// and wires it to the engine's transport and randomness. Called
	// once, from New.
	bind(e *Engine) error
	// drivers partitions the population into tick drivers according to
	// Config.Workers. Each driver is swept by its own goroutine.
	drivers(workers int) []driver
	// estimates reads back the live hosts' estimates (Engine.Estimates).
	estimates() []float64
	// local returns the count of messages delivered without touching
	// the transport: self shares and push/pull exchange legs.
	local() int64
}

// driver executes one tick of one host shard; the engine supplies
// pacing and cancellation around it.
type driver interface {
	tick(t int)
}

// AgentPopulation is the classic host backend: one gossip.Agent per
// host, one lock per host, ticked either by per-host goroutines
// (Workers == 0) or by workers sweeping contiguous shards. It is the
// engine's original execution path moved behind the Population
// interface — same locks, same PRNG splits, same drain/emit/fold
// order — so engines built over it behave identically to the
// pre-Population engine, and it remains the only backend supporting
// push/pull and Span.
type AgentPopulation struct {
	agents []gossip.Agent
	e      *Engine
	locks  []sync.Mutex
	rngs   []xrand.Rand // one flat block, 16 bytes per host
	// n counts messages that never touch the transport: a host's own
	// retained share and push/pull exchange legs.
	n atomic.Int64
}

var _ Population = (*AgentPopulation)(nil)

// NewAgentPopulation wraps one protocol instance per driven host:
// agent i is host Span.Lo+i (host i for a full-population engine).
func NewAgentPopulation(agents []gossip.Agent) *AgentPopulation {
	return &AgentPopulation{agents: agents}
}

// Agents returns the backing agent slice, aliased, not copied — the
// same slice construction handed in, so estimates and state remain
// reachable after a run.
func (p *AgentPopulation) Agents() []gossip.Agent { return p.agents }

// Hosts implements Population.
func (p *AgentPopulation) Hosts() int { return len(p.agents) }

// bind implements Population: size and capability validation, then
// the per-host locks and split PRNG streams of the original engine.
func (p *AgentPopulation) bind(e *Engine) error {
	cfg := e.cfg
	n := len(p.agents)
	if e.partial {
		if want := int(cfg.Span.Hi - cfg.Span.Lo); n != want {
			return fmt.Errorf("live: Population of %d hosts for span [%d,%d) of %d hosts",
				n, cfg.Span.Lo, cfg.Span.Hi, want)
		}
	} else if n != cfg.Env.Size() {
		return fmt.Errorf("live: Population of %d hosts for environment of size %d", n, cfg.Env.Size())
	}
	if cfg.Model == gossip.PushPull {
		for i, a := range p.agents {
			if _, ok := a.(gossip.Exchanger); !ok {
				return fmt.Errorf("live: agent %d (%T) does not implement Exchanger", i, a)
			}
		}
	}
	p.e = e
	p.locks = make([]sync.Mutex, n)
	p.rngs = make([]xrand.Rand, n)
	root := xrand.New(cfg.Seed)
	for i := range p.rngs {
		p.rngs[i] = *root.Split(uint64(e.lo) + uint64(i))
	}
	return nil
}

// drivers implements Population: Workers == 0 keeps one driver (hence
// one goroutine) per host; k > 0 shards hosts contiguously onto k
// drivers, exactly the original engine's layout.
func (p *AgentPopulation) drivers(workers int) []driver {
	n := len(p.agents)
	if workers == 0 || workers > n {
		workers = n
	}
	ds := make([]driver, workers)
	for s := 0; s < workers; s++ {
		ds[s] = &agentShard{p: p, lo: s * n / workers, hi: (s + 1) * n / workers}
	}
	return ds
}

// local implements Population.
func (p *AgentPopulation) local() int64 { return p.n.Load() }

// estimates implements Population: per-host locked reads, dead hosts
// (at the final tick) skipped.
func (p *AgentPopulation) estimates() []float64 {
	e := p.e
	out := make([]float64, 0, len(p.agents))
	for i, a := range p.agents {
		id := e.lo + gossip.NodeID(i)
		if !e.cfg.Env.Alive(id, e.finalTick()) {
			continue
		}
		p.locks[i].Lock()
		v, ok := a.Estimate()
		p.locks[i].Unlock()
		if ok {
			out = append(out, v)
		}
	}
	return out
}

// agentShard drives local hosts [lo, hi): one tick of every host per
// tick call, so shard hosts progress together while shards interleave
// freely against each other.
type agentShard struct {
	p      *AgentPopulation
	lo, hi int
}

func (s *agentShard) tick(t int) {
	p := s.p
	e := p.e
	for i := s.lo; i < s.hi; i++ {
		id := e.lo + gossip.NodeID(i)
		if !e.cfg.Env.Alive(id, t) {
			continue
		}
		if e.cfg.Model == gossip.Push {
			p.pushTick(p.agents[i], id, t, &p.rngs[i])
		} else {
			p.pullTick(p.agents[i], id, t, &p.rngs[i])
		}
	}
}

// pushTick runs one asynchronous push iteration: drain, emit, fold.
// The agent lock serializes against concurrent exchanges and estimate
// reads.
func (p *AgentPopulation) pushTick(agent gossip.Agent, id gossip.NodeID, tick int, rng *xrand.Rand) {
	e := p.e
	li := int(id - e.lo)
	p.locks[li].Lock()
	agent.BeginRound(tick)
	// Drain whatever arrived since the last tick.
	e.tr.Drain(id, agent.Receive)
	pick := func() (gossip.NodeID, bool) { return e.cfg.Env.Pick(id, tick, rng) }
	// The payloads may alias the agent's scratch, which its next
	// BeginRound rewrites. Everything below reads them before that on
	// this goroutine — self-delivery in place, and Send, where an
	// encoding transport reads them in place too — and a transport that
	// queues or delays a payload past Send detaches it itself
	// (gossip.Detacher).
	envs := agent.Emit(tick, rng, pick)
	// Self messages are the host's own retained share: they must land
	// in the same round (before EndRound folds the inbox) and must
	// never be dropped, or mass would evaporate — so they bypass the
	// transport entirely.
	for _, env := range envs {
		if env.To == id {
			agent.Receive(env.Payload)
			p.n.Add(1)
		}
	}
	agent.EndRound(tick)
	p.locks[li].Unlock()

	for _, env := range envs {
		if env.To == id {
			continue
		}
		e.tr.Send(id, env.To, tick, env.Payload)
	}
}

// pullTick runs one push/pull iteration: pick a peer and perform the
// pairwise exchange under both hosts' locks, ordered by id to prevent
// deadlock. Exchanges are in-process by nature (both agents mutate),
// so they never touch the transport; Span engines therefore reject
// the push/pull model at construction.
func (p *AgentPopulation) pullTick(agent gossip.Agent, id gossip.NodeID, tick int, rng *xrand.Rand) {
	e := p.e
	peer, ok := e.cfg.Env.Pick(id, tick, rng)
	if !ok || peer == id {
		return
	}
	a, b := int(id-e.lo), int(peer-e.lo)
	if a > b {
		a, b = b, a
	}
	p.locks[a].Lock()
	p.locks[b].Lock()
	agent.BeginRound(tick)
	agent.(gossip.Exchanger).Exchange(p.agents[peer-e.lo].(gossip.Exchanger))
	agent.EndRound(tick)
	p.locks[b].Unlock()
	p.locks[a].Unlock()
	p.n.Add(2)
}
