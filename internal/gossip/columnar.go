// Columnar (struct-of-arrays) execution path.
//
// The classic path runs one heap-allocated agent per host behind the
// Agent interface: every BeginRound/Emit/Receive/EndRound is an
// indirect call landing on a random heap address — at a million hosts
// the round is bound by pointer-chasing, not arithmetic. The columnar
// path inverts the layout: ONE protocol value owns dense per-host
// state arrays for the whole population (Push-Sum becomes w, v, inW,
// inV []float64) and the engine hands it whole host *ranges* per
// phase, so the round body is flat loops over contiguous columns with
// four interface calls per range instead of four per host.
//
// Messages travel the same way: instead of Envelope's `Payload any`
// (an interface box per message), emissions are appended to a dense
// []ColMsg column carrying the destination, the source, and an inline
// (W, V) mass. Mass protocols read the mass; matrix protocols
// (Count-Sketch-Reset) use From to index their own population-wide
// state block. The engine counts traffic centrally, exactly as the
// classic path does, and Deliver skips messages to dead hosts.
//
// Determinism contract: the columnar backend is byte-identical to the
// classic one. Both run under the same executor (round.go): peer picks
// consume the same per-host PRNG splits through ColRound.Pick,
// emissions are appended in ascending host order with each host's
// messages in the same intra-host order as EmitAppend, and Deliver
// receives messages in emitter order — so every destination folds
// payloads in exactly the sequence a classic agent Receives them.
// (Float accumulation is order-sensitive; preserving fold order is what
// makes the parity exact rather than approximate.)
//
// Push/pull runs on the columnar plane too, through ColExchanger: the
// engine draws every initiator's peer, materialises the round's
// exchanges as flat []Pair batches — one per shard, handed over in
// initiator order — and the protocol executes each batch as one kernel
// over its columns, with no per-pair Exchanger interface calls.
package gossip

import (
	"fmt"
	"slices"

	"dynagg/internal/xrand"
)

// Mass is the inline (weight, value) payload of the columnar message
// plane. Mass-vector protocols gossip it directly; protocols with
// larger state ignore it and address their own columns via
// ColMsg.From.
type Mass struct {
	W float64
	V float64
}

// ColMsg is one message in the columnar plane: a destination, the
// emitting host, and an inline mass. No pointers, no interface boxing
// — a round's traffic is one flat, cache-sequential column.
type ColMsg struct {
	To   NodeID
	From NodeID
	Mass Mass
}

// ColRound is the engine-side context handed to columnar round
// kernels. One value serves a whole shard of the executor (or one live
// driver); fields are read-only for kernels except Out, which EmitRange
// appends to.
type ColRound struct {
	// Round is the current round number.
	Round int
	// Model is the engine's gossip model. Kernels whose round-end fold
	// differs between push (apply the delivered inbox) and push/pull
	// (state was updated in place by ExchangePairs) branch on it.
	Model Model
	// Alive is the population-wide liveness bitmap, fixed for the
	// round. Kernels read it where they need one host's liveness — a
	// destination's, at random; to visit their own live hosts they
	// iterate Live.
	Alive []bool
	// Out is the emission column for the current EmitRange call.
	// Kernels reserve their range's emission on it once and then
	// append (see ColumnarAgent); the engine counts and routes
	// afterwards.
	Out []ColMsg

	env  Environment
	rngs []xrand.Rand

	// live lists, ascending, the hosts of [lo, hi) the last Sample found
	// alive.
	live   []NodeID
	lo, hi int
}

// NewColRound builds a round context for drivers that tick columnar
// kernels outside the round engine — the live engine's
// ColumnarPopulation shards. rngs is the population's flat PRNG block,
// one generator per host indexed by NodeID, from the same Split streams
// the engine would build; it is shared, not copied. alive is the
// population-wide bitmap Sample fills, and hosts the size of the range
// the driver samples (its live list is sized to it). The caller owns
// Round and Out between kernel calls.
func NewColRound(model Model, env Environment, rngs []xrand.Rand, alive []bool, hosts int) *ColRound {
	return &ColRound{Model: model, Alive: alive, env: env, rngs: rngs, live: make([]NodeID, 0, hosts)}
}

// Sample copies the liveness of [lo, hi) into Alive[lo:hi] (one
// Environment.AliveRange call), builds the list Live serves from it,
// and returns how many are alive. It is the only writer of both: a
// driver samples the range it owns once per round, before BeginRange,
// and nothing may write Alive or the list behind it. Different drivers'
// ranges must not overlap, and each driver has its own ColRound.
func (rc *ColRound) Sample(lo, hi int) int {
	if cap(rc.live) < hi-lo {
		rc.live = make([]NodeID, 0, hi-lo)
	}
	ids, alive := rc.live[:hi-lo], rc.Alive[lo:hi]
	rc.env.AliveRange(lo, hi, rc.Round, alive)
	// Nothing but the cursor hangs off the liveness test, so it compiles
	// branch-free: after a failure wave liveness is a coin flip per host,
	// and a mispredicted branch costs more than the sample.
	k := 0
	for i, a := range alive {
		ids[k] = NodeID(lo + i)
		if a {
			k++
		}
	}
	rc.live, rc.lo, rc.hi = ids[:k], lo, hi
	return k
}

// Live returns, ascending, the hosts of [lo, hi) the last Sample found
// alive — what BeginRange, EmitRange and EndRange iterate instead of
// testing Alive host by host. The slice is shared and read-only. A
// range covering the sampled one costs nothing; a narrower one (a block
// of it, a single host) costs two binary searches.
func (rc *ColRound) Live(lo, hi int) []NodeID {
	live := rc.live
	if lo <= rc.lo && rc.hi <= hi {
		return live
	}
	a, _ := slices.BinarySearch(live, NodeID(lo))
	b, _ := slices.BinarySearch(live[a:], NodeID(hi))
	return live[a : a+b]
}

// Pick draws one gossip partner for host id from the environment,
// consuming id's private PRNG — the same stream, in the same order,
// as the classic path's PeerPicker.
func (rc *ColRound) Pick(id NodeID) (NodeID, bool) {
	return rc.env.Pick(id, rc.Round, &rc.rngs[id])
}

// ColumnarAgent is the bulk-protocol contract: one value owns the
// dense state of the entire population and executes round phases as
// flat loops over host ranges.
//
// The engine calls, every push round, in order: BeginRange covering
// every host; EmitRange covering every host (appending to rc.Out);
// Deliver with the emitted messages in emitter order; EndRange
// covering every host. With Workers > 1 the Begin/Emit/End phases are
// invoked once per contiguous shard range concurrently, and Deliver is
// invoked per destination shard with that shard's messages — kernels
// must therefore only write state belonging to the hosts in the given
// range (or, for Deliver, to the message destinations) and may read any
// host's *start-of-round* state.
//
// BeginRange, EmitRange and EndRange visit the live hosts of their
// range by iterating rc.Live(lo, hi), mirroring the classic engine's
// dead-host gating. A kernel may empty a per-round inbox in the
// EndRange that consumes it rather than in BeginRange: Deliver folds
// nothing into a dead host, so its inbox is still empty on revival.
type ColumnarAgent interface {
	// Len returns the population size.
	Len() int
	// BeginRange resets per-round columns for hosts [lo, hi); an inbox
	// the EndRange that consumes it empties needs no reset here.
	BeginRange(rc *ColRound, lo, hi int)
	// EmitRange computes emissions for hosts [lo, hi), appending them
	// to rc.Out in ascending host order. Every live host in the range
	// initiates exactly one gossip contact (plus any self-messages its
	// protocol specifies). It appends at most fan-out ×
	// len(rc.Live(lo, hi)) messages, the fan-out being the most one
	// host emits, and reserves them before the first append
	// (slices.Grow): grown by append from empty, the first round's
	// column would allocate about four times its final size.
	EmitRange(rc *ColRound, lo, hi int)
	// Deliver folds a batch of messages into their destinations'
	// per-round columns. Messages arrive in emitter order, and some may
	// be addressed to a host that is dead this round, for example a
	// departed peer the environment still offered. Fold only m with
	// rc.Alive[m.To]: the others are lost.
	Deliver(rc *ColRound, msgs []ColMsg)
	// EndRange folds received state into host state and refreshes
	// estimates for hosts [lo, hi).
	EndRange(rc *ColRound, lo, hi int)
	// Estimate returns host id's current estimate of the aggregate;
	// ok is false before any estimate exists.
	Estimate(id NodeID) (value float64, ok bool)
}

// Pair is one push/pull exchange on the columnar plane: initiator A
// meets peer B. Both endpoints are alive when the engine schedules the
// pair; a pick of a dead peer makes no pair.
type Pair struct {
	A NodeID
	B NodeID
}

// ColExchanger is implemented by columnar protocols that additionally
// support the push/pull model. The engine calls, every push/pull
// round, in order: BeginRange covering every host; ExchangePairs with
// the round's exchanges as flat batches; EndRange covering every host.
// EmitRange and Deliver are never called under push/pull.
//
// Batch contract: ExchangePairs calls come from one goroutine, one
// batch per shard, and the batches arrive in initiator order (a
// one-shard engine hands the whole round as one batch). Pairs may
// share endpoints, within a batch and across batches, and MUST be
// executed strictly in slice order.
type ColExchanger interface {
	ColumnarAgent
	ExchangePairs(rc *ColRound, pairs []Pair)
}

// Columnar returns the engine's columnar protocol, or nil when the
// engine runs classic agents.
func (e *Engine) Columnar() ColumnarAgent { return e.col }

// validateColumnar checks the columnar half of a Config.
func validateColumnar(cfg Config) error {
	if len(cfg.Agents) != 0 {
		return fmt.Errorf("gossip: Config.Columnar and Config.Agents are mutually exclusive")
	}
	if cfg.Model == PushPull {
		if _, ok := cfg.Columnar.(ColExchanger); !ok {
			return fmt.Errorf("gossip: columnar protocol %T does not implement ColExchanger required by push-pull", cfg.Columnar)
		}
	}
	if got, want := cfg.Columnar.Len(), cfg.Env.Size(); got != want {
		return fmt.Errorf("gossip: columnar population %d for environment of size %d", got, want)
	}
	return nil
}
