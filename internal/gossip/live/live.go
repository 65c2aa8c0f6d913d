// Package live runs gossip protocols as concurrently ticking hosts
// exchanging messages over a pluggable transport — the Go-native
// counterpart to the deterministic round engine in package gossip.
//
// The round engine answers "what does the protocol do?" reproducibly;
// the live engine answers "does the protocol survive reality?":
// hosts tick independently without a global barrier, message delivery
// is asynchronous, queues overflow and drop (like a radio), and
// push/pull exchanges contend on per-host locks. The paper's protocols
// are designed exactly for such loose environments, so they must
// converge here too — the live engine's tests assert convergence
// within tolerance rather than exact trajectories.
//
// The host population is an abstraction (Population) with two
// implementations:
//
//   - NewAgentPopulation wraps one boxed gossip.Agent per host — the
//     engine's original per-goroutine form, byte-compatible with it,
//     and the only form that supports push/pull and Span.
//   - NewColumnarPopulation drives a gossip.ColumnarAgent: the whole
//     population's state lives in dense columns, per-shard driver
//     loops tick contiguous host ranges, and messages are encoded
//     straight from columns into transport batches (and decoded
//     straight back) with no per-host boxing — the form that scales
//     the live path to a million hosts in one process.
//
// Messages travel through a transport.Transport. The default is the
// in-process channel transport; transport.UDP puts every payload on a
// real loopback socket in the envelope its protocol package encodes
// (wire.Payload), transport.TCP frames the same envelopes onto
// reliable streams, and transport.Lossy injects message loss over any
// of them. What a host's Receive is handed depends on the transport:
// the channel transport delivers the detached copy of what Emit
// returned, while the socket transports hand over what the protocol's
// registered decoder (wire.Register) returns — a mass as a
// pushsumrevert.Mass value, and the two payloads that carry a counter
// matrix still in wire form (sketchreset.Packed, multi.Packed —
// validated by the transport's reader, folded in place by Receive, see
// docs/architecture.md). With Config.Span, several engines — in
// several OS processes — can each drive a slice of one population over
// UDP (addresses exchanged out of band) or TCP (membership formed by
// Config.Bootstrap), which makes this a distributed system rather than
// a simulator.
//
// Restrictions compared to the round engine: the environment must be
// time-invariant (Uniform or Grid; contact traces need the global
// clock that rounds provide), and per-run results are not reproducible
// because goroutine scheduling is not. The live engine drives agents
// through Emit, whose payloads may alias the emitter's scratch until
// its next tick: a transport that holds one across ticks (the channel
// queues, a delayed loss injector) keeps its gossip.Detacher copy.
package live

import (
	"context"
	"fmt"
	"sync"
	"time"

	"dynagg/internal/gossip"
	"dynagg/internal/gossip/live/transport"
)

// Span designates the slice [Lo, Hi) of the environment's population
// that one engine drives. The zero Span means the full population.
type Span struct {
	Lo, Hi gossip.NodeID
}

// Forever, as Config.Ticks, runs the engine until its context is
// cancelled — the setting for serving processes (an observer gateway)
// whose lifetime is operational, not experimental.
const Forever = -1

// Config assembles a live engine.
type Config struct {
	// Population is the host-state backend the engine drives: build it
	// with NewAgentPopulation (one gossip.Agent per host, the classic
	// per-goroutine form) or NewColumnarPopulation (dense columns,
	// per-shard drivers, batch transport I/O). Required.
	Population Population
	// Env supplies liveness and peer selection. It must be
	// time-invariant: Advance is never called and the round argument
	// passed to Alive/Pick is the host's local tick count.
	Env gossip.Environment
	// Model selects push (transport delivery) or push/pull (pairwise
	// locked exchange; agent populations only).
	Model gossip.Model
	// Seed drives per-host randomness, split by global host id so the
	// engines of a multi-process run draw from disjoint streams.
	Seed uint64
	// Ticks is how many protocol iterations each host performs. The
	// sentinel Forever (-1) ticks until the Run context is cancelled.
	Ticks int
	// TickEvery paces hosts in wall-clock time: each driver performs
	// one iteration per interval instead of spinning as fast as the
	// scheduler allows. Age-based protocols (Count-Sketch-Reset) bound
	// counter ages assuming the population iterates at loosely equal
	// rates — which free-running goroutines racing a real network do
	// not provide, but a radio duty cycle does. Zero keeps the unpaced
	// free-running mode.
	TickEvery time.Duration
	// Workers bounds the driver goroutines. For an agent population, 0
	// (the default) keeps one goroutine per host — maximal
	// interleaving, the harshest setting for protocol robustness — and
	// k > 0 multiplexes hosts onto k workers, each sweeping a
	// contiguous host shard. For a columnar population drivers own
	// whole transport batch groups, so the effective count is capped
	// at the group count (0 means one driver per group). Either way
	// runs are not reproducible; only the round engine is.
	Workers int
	// Transport carries cross-host messages. Nil selects the
	// in-process channel transport over the full population with
	// transport.DefaultQueue-deep host queues — the engine's original
	// behavior. Columnar populations additionally require the
	// transport to expose a batch plane
	// (transport.Batcher; the channel and UDP transports both do). The
	// engine never closes the transport; the caller owns its lifetime
	// (the default channel transport needs no closing).
	Transport transport.Transport
	// Span restricts the engine to a slice of the population, with the
	// rest driven by other engines (typically other OS processes)
	// reachable through Transport. Requires an explicit Transport, the
	// push model, and an agent population. The zero Span drives
	// everything.
	Span Span
	// Bootstrap, when set, makes Run form the population's membership
	// before driving any ticks: the engine announces Span to the seed
	// addresses and blocks until the whole population is mapped (see
	// Bootstrap). Requires Span, and a TCP transport at the bottom of
	// the Transport stack — datagram transports exchange addresses out
	// of band instead.
	Bootstrap *Bootstrap
}

// Engine is a running live simulation: the tick/pacing/cancellation
// skeleton around a Population that owns the actual host state.
type Engine struct {
	cfg     Config
	pop     Population
	tr      transport.Transport
	lo      gossip.NodeID // global id of the first driven host
	partial bool
}

// New validates the configuration and builds a live engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Env == nil {
		return nil, fmt.Errorf("live: Config.Env is nil")
	}
	pop := cfg.Population
	if pop == nil {
		return nil, fmt.Errorf("live: Config.Population is nil (build one with NewAgentPopulation or NewColumnarPopulation)")
	}
	if cfg.Model != gossip.Push && cfg.Model != gossip.PushPull {
		return nil, fmt.Errorf("live: unknown Config.Model %v", cfg.Model)
	}
	partial := cfg.Span != (Span{})
	if partial {
		if cfg.Span.Lo < 0 || cfg.Span.Lo >= cfg.Span.Hi || int(cfg.Span.Hi) > cfg.Env.Size() {
			return nil, fmt.Errorf("live: Span [%d,%d) outside environment of size %d",
				cfg.Span.Lo, cfg.Span.Hi, cfg.Env.Size())
		}
		if cfg.Transport == nil {
			return nil, fmt.Errorf("live: Span requires an explicit Transport to reach the other hosts")
		}
		if cfg.Model != gossip.Push {
			return nil, fmt.Errorf("live: Span supports only the push model; push/pull exchanges need both agents in-process")
		}
	}
	if cfg.Ticks <= 0 && cfg.Ticks != Forever {
		return nil, fmt.Errorf("live: Ticks must be positive (or live.Forever), got %d", cfg.Ticks)
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("live: Workers must be >= 0, got %d", cfg.Workers)
	}
	if cfg.TickEvery < 0 {
		return nil, fmt.Errorf("live: TickEvery must be >= 0, got %v", cfg.TickEvery)
	}
	if lt, ok := cfg.Transport.(*transport.Lossy); ok {
		if err := lt.Validate(); err != nil {
			return nil, fmt.Errorf("live: %w", err)
		}
	}
	if cfg.Bootstrap != nil {
		if err := cfg.Bootstrap.Validate(); err != nil {
			return nil, err
		}
		if cfg.Bootstrap.Span != cfg.Span {
			return nil, fmt.Errorf("live: Bootstrap.Span [%d,%d) differs from Config.Span [%d,%d)",
				cfg.Bootstrap.Span.Lo, cfg.Bootstrap.Span.Hi, cfg.Span.Lo, cfg.Span.Hi)
		}
		// Total may be smaller than the environment: the slots above it
		// are observer spans — hosts that join the gossip (peers pick
		// them, mass flows through them) but are not part of the
		// population the bootstrap waits to see mapped.
		if cfg.Bootstrap.Total > cfg.Env.Size() {
			return nil, fmt.Errorf("live: Bootstrap.Total %d exceeds environment size %d",
				cfg.Bootstrap.Total, cfg.Env.Size())
		}
		if _, ok := transport.AsTCP(cfg.Transport); !ok {
			return nil, fmt.Errorf("live: Bootstrap needs a TCP transport (got %T); datagram transports exchange addresses out of band", cfg.Transport)
		}
	}
	e := &Engine{
		cfg:     cfg,
		pop:     pop,
		tr:      cfg.Transport,
		lo:      cfg.Span.Lo,
		partial: partial,
	}
	if e.tr == nil {
		e.tr = transport.NewChannel(cfg.Env.Size(), transport.DefaultQueue)
	}
	if err := pop.bind(e); err != nil {
		return nil, err
	}
	return e, nil
}

// Transport returns the transport the engine delivers through (the
// default channel transport when Config.Transport was nil).
func (e *Engine) Transport() transport.Transport { return e.tr }

// Population returns the host-state backend the engine drives.
func (e *Engine) Population() Population { return e.pop }

// Sent returns the number of messages successfully enqueued, both
// through the transport and delivered in-process (self shares,
// push/pull exchange legs).
func (e *Engine) Sent() int64 { return e.pop.local() + e.tr.Sent() }

// Dropped returns the number of messages lost in transit: full
// queues, transport.Lossy injection, or dead sockets.
func (e *Engine) Dropped() int64 { return e.tr.Dropped() }

// Run executes the population's ticks concurrently and blocks until
// every driver finishes or the context is cancelled. With
// Config.Bootstrap set, Run first announces this engine's span and
// blocks until the whole population is mapped — no host ticks before
// membership is complete. The population decides its driver layout
// (see Config.Workers); each driver sweeps one tick of its hosts, then
// the next, so a driver's hosts progress together while drivers
// interleave freely against each other. On cancellation every driver
// returns ctx.Err(); Run reports it once.
func (e *Engine) Run(ctx context.Context) error {
	if e.cfg.Bootstrap != nil {
		tcp, _ := transport.AsTCP(e.tr) // validated in New
		if err := e.cfg.Bootstrap.Run(ctx, tcp); err != nil {
			return err
		}
		// Keep re-announcing for the engine's lifetime so a seed that
		// restarts mid-run rebuilds its membership table from our
		// re-registrations (fire-and-forget: announces to a closed or
		// unreachable peer fail quietly and the next cycle retries).
		kaCtx, cancel := context.WithCancel(ctx)
		defer cancel()
		go e.cfg.Bootstrap.KeepAlive(kaCtx, tcp)
	}
	drivers := e.pop.drivers(e.cfg.Workers)
	var wg sync.WaitGroup
	errs := make(chan error, len(drivers))
	for _, d := range drivers {
		wg.Add(1)
		go func(d driver) {
			defer wg.Done()
			if err := e.driveLoop(ctx, d); err != nil {
				errs <- err
			}
		}(d)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

// driveLoop runs one driver's ticks under the engine's pacing and
// cancellation rules.
func (e *Engine) driveLoop(ctx context.Context, d driver) error {
	var pacer *time.Ticker
	if e.cfg.TickEvery > 0 {
		pacer = time.NewTicker(e.cfg.TickEvery)
		defer pacer.Stop()
	}
	for tick := 0; e.cfg.Ticks == Forever || tick < e.cfg.Ticks; tick++ {
		if pacer != nil {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-pacer.C:
			}
		} else {
			select {
			case <-ctx.Done():
				return ctx.Err()
			default:
			}
		}
		d.tick(tick)
	}
	return nil
}

// finalTick is the tick estimates are read "at": the last configured
// tick, or 0 for a Forever engine (whose environment is time-invariant
// by the live engine's rules, so any tick reads the same liveness).
func (e *Engine) finalTick() int {
	if e.cfg.Ticks == Forever {
		return 0
	}
	return e.cfg.Ticks
}

// Estimates returns the driven hosts' current estimates, skipping
// hosts the environment reports dead at the final tick. Call after Run
// returns (or accept racy snapshots during a run — agent populations
// take the host lock per read, so individual estimates are coherent;
// columnar estimates during a run are unsynchronized, and one derived
// from a counter matrix may read it mid-merge).
func (e *Engine) Estimates() []float64 {
	return e.pop.estimates()
}
