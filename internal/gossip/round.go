// The round executor.
//
// The host array is split into contiguous shards and a round is a
// sequence of phases, each a plain method run once per shard with a
// barrier after it. With one shard (Config.Workers 0 or 1) every phase
// runs inline on the caller's goroutine: no goroutine, no closure,
// nothing copied between shards. With k > 1 shards the same methods
// fork-join over k goroutines, except the push/pull exchange step,
// which always runs on the caller's goroutine. Both backends run the
// same phases; a phase branches on the backend only where the message
// type differs (Envelope for classic agents, ColMsg for a columnar
// protocol).
//
// Determinism does not depend on the shard count: every host owns a
// private PRNG split (host behaviour never depends on iteration
// order), environments are read-only between Advance calls — liveness
// is copied once per round, a range per shard (Environment.AliveRange),
// into a bitmap all phases share, plus each shard's ascending list of
// its live hosts, which is how every phase visits them — and the two
// order-sensitive steps are order-identical for any k:
//
//   - Push delivery: each shard buckets its emissions by destination
//     shard, and the destination's worker drains source shards in shard
//     order. Shards are contiguous, so shard-then-host order is
//     ascending emitter order — every host folds its payloads in the
//     sequence one flat pass over all emissions would give it. (Float
//     accumulation is order-sensitive; this is what makes results
//     byte-identical rather than approximately equal.)
//   - Push/pull exchange: peers are picked per shard (a pick consumes
//     only the initiator's PRNG), giving the round's exchanges in
//     initiator order. They run on the caller's goroutine, shard by
//     shard, each shard's pairs as one ordered batch; shards are
//     contiguous, so shard order is initiator order for any k.
//
// A message or initiation to a host dead this round is lost: the
// classic route drops it, a columnar Deliver skips it, and a push/pull
// pick of a dead peer makes no pair.
package gossip

import (
	"runtime"
	"sync"
)

// DefaultWorkers returns a GOMAXPROCS-sized worker count for
// Config.Workers.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// shard is one contiguous host range [lo, hi) and the scratch its
// phases reuse across rounds. Only the owning worker writes a shard's
// fields during a phase, except that the deliver phase of shard d
// empties slot d of every shard's outbox.
type shard struct {
	idx, lo, hi int

	// contacts and messages are this round's counters: contacts the
	// shard's hosts initiated and messages they sent, lost ones included.
	contacts, messages int64

	// out[d] (classic) or colOut[d] (columnar) buffers what this shard
	// emitted for hosts of shard d, in emission order. The shard's
	// own slot is also its emission scratch: agents and kernels append
	// there and the route step compacts it in place, so one shard never
	// copies a message.
	out    [][]Envelope
	colOut [][]ColMsg
	// sized is set once the columnar route has given the cross-shard
	// slots their first capacity (sizeSlots).
	sized bool

	// pick is the peer picker handed to this shard's classic agents and
	// pickID the host it draws for — rewritten per host instead of
	// allocating a closure per host.
	pick   PeerPicker
	pickID NodeID

	// rc is the shard's round context: its sample of liveness, on either
	// backend, and what columnar kernels are handed.
	rc ColRound

	// pairs holds the shard's push/pull initiations, in host order.
	pairs []Pair
}

// newShards splits the population into k contiguous shards.
func (e *Engine) newShards(k int) {
	n := len(e.rngs)
	e.shards = make([]shard, k)
	for s := range e.shards {
		sh := &e.shards[s]
		sh.idx, sh.lo, sh.hi = s, s*n/k, (s+1)*n/k
		if e.model == PushPull {
			sh.pairs = make([]Pair, 0, sh.hi-sh.lo) // one initiation per host at most
		}
		sh.rc = ColRound{Model: e.model, Alive: e.alive, env: e.env, rngs: e.rngs,
			live: make([]NodeID, 0, sh.hi-sh.lo)}
		if e.col != nil {
			sh.colOut = make([][]ColMsg, k)
			continue
		}
		sh.out = make([][]Envelope, k)
		sh.pick = func() (NodeID, bool) { return sh.rc.Pick(sh.pickID) }
	}
}

// shardOf returns the shard owning host id: the largest s whose lower
// bound s*n/k is at most id.
func (e *Engine) shardOf(id NodeID) int {
	return ((int(id)+1)*len(e.shards) - 1) / len(e.rngs)
}

// forShards runs one phase on every shard and waits for all of them.
// Phases are method expressions, not closures: a closure would escape
// and cost an allocation per phase even on the inline path.
func (e *Engine) forShards(phase func(*Engine, *shard)) {
	if len(e.shards) == 1 {
		phase(e, &e.shards[0])
		return
	}
	var wg sync.WaitGroup
	for s := range e.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			phase(e, &e.shards[s])
		}()
	}
	wg.Wait()
}

// pushRound is the push round: begin → emit and route → deliver and
// end. All emission is computed from start-of-round state, so nothing
// is delivered before every shard has emitted.
func (e *Engine) pushRound() {
	e.forShards((*Engine).begin)
	e.forShards((*Engine).emit)
	e.forShards((*Engine).deliver)
	e.tally()
}

// pushPullRound is the push/pull round: begin → pick → exchange → end.
func (e *Engine) pushPullRound() {
	e.forShards((*Engine).begin)
	e.forShards((*Engine).pickPeers)
	e.tally()
	for s := range e.shards {
		e.exchange(&e.shards[s])
	}
	e.forShards((*Engine).end)
}

// tally adds the shards' round counters to the engine's totals.
func (e *Engine) tally() {
	for s := range e.shards {
		e.contacts += e.shards[s].contacts
		e.messages += e.shards[s].messages
	}
}

// begin samples the environment's liveness for the shard's hosts —
// Environment.Alive is stable between Advance calls, so later phases
// read the sample instead of asking again — and starts the round on the
// live ones, each one contact under push (pickPeers recounts).
func (e *Engine) begin(sh *shard) {
	rc := &sh.rc
	rc.Round = e.round
	sh.contacts = int64(rc.Sample(sh.lo, sh.hi))
	if e.col != nil {
		e.col.BeginRange(rc, sh.lo, sh.hi)
		return
	}
	for _, id := range rc.Live(sh.lo, sh.hi) {
		e.agents[id].BeginRound(e.round)
	}
}

// emit collects the shard's emissions in its own outbox slot and
// routes them: messages for the shard's own hosts are compacted in
// place (stable, so emitter order is kept) and the rest move to the
// slot of the shard owning the destination. Classic envelopes to dead
// hosts are dropped here — silently, that is the point of the dynamic
// protocols — and columnar ones by Deliver.
func (e *Engine) emit(sh *shard) {
	// id is one of the shard's own hosts iff uint32(id-lo) < size; kept
	// in locals so the route loops test it in registers.
	lo, size := NodeID(sh.lo), uint32(sh.hi-sh.lo)
	if e.col != nil {
		rc := &sh.rc
		rc.Out = sh.colOut[sh.idx][:0]
		e.col.EmitRange(rc, sh.lo, sh.hi)
		sh.messages, sh.colOut[sh.idx] = int64(len(rc.Out)), rc.Out
		if len(e.shards) == 1 {
			return
		}
		out, kept := rc.Out, 0
		if !sh.sized {
			e.sizeSlots(sh, out)
		}
		for _, m := range out {
			if uint32(m.To-lo) < size {
				out[kept] = m
				kept++
			} else {
				d := e.shardOf(m.To)
				sh.colOut[d] = append(sh.colOut[d], m)
			}
		}
		rc.Out, sh.colOut[sh.idx] = out[:kept], out[:kept]
		return
	}
	alive := e.alive
	r, box := e.round, sh.out[sh.idx][:0]
	sh.messages = 0
	for _, id := range sh.rc.Live(sh.lo, sh.hi) {
		sh.pickID = id
		start := len(box)
		// Through EmitAppend when the agent supports it, otherwise through
		// Emit (one slice and one box per payload, the legacy cost).
		if ae := e.emitters[id]; ae != nil {
			box = ae.EmitAppend(box, r, &e.rngs[id], sh.pick)
		} else {
			box = append(box, e.agents[id].Emit(r, &e.rngs[id], sh.pick)...)
		}
		sh.messages += int64(len(box) - start)
		kept := start
		for _, env := range box[start:] {
			switch {
			case !alive[env.To]:
			case uint32(env.To-lo) < size:
				box[kept] = env
				kept++
			default:
				d := e.shardOf(env.To)
				sh.out[d] = append(sh.out[d], env)
			}
		}
		box = box[:kept]
	}
	sh.out[sh.idx] = box
}

// sizeSlots reserves each of the shard's cross-shard slots exactly
// what the shard's first routed round sends that way, so the route does
// not grow them by append from empty; later rounds append into that
// capacity and grow it only when a round sends more.
func (e *Engine) sizeSlots(sh *shard, out []ColMsg) {
	need := make([]int, len(e.shards))
	for _, m := range out {
		need[e.shardOf(m.To)]++
	}
	for d, c := range need {
		if d != sh.idx && cap(sh.colOut[d]) < c {
			sh.colOut[d] = make([]ColMsg, 0, c)
		}
	}
	sh.sized = true
}

// deliver drains, in shard order (= emitter order), what every shard
// emitted for dst's hosts, then ends the round on them.
func (e *Engine) deliver(dst *shard) {
	for s := range e.shards {
		src := &e.shards[s]
		if e.col != nil {
			box := src.colOut[dst.idx]
			if len(box) > 0 {
				e.col.Deliver(&dst.rc, box)
			}
			src.colOut[dst.idx] = box[:0]
			continue
		}
		box := src.out[dst.idx]
		for _, env := range box {
			e.agents[env.To].Receive(env.Payload)
		}
		src.out[dst.idx] = box[:0]
	}
	e.end(dst)
}

// pickPeers draws one peer for every live host of the shard. Picks
// consume only the initiator's private PRNG and read-only environment
// state, so they are the same for any shard count. Every drawn peer is
// a contact, but only a live one makes a pair.
func (e *Engine) pickPeers(sh *shard) {
	rc, pairs, picked := &sh.rc, sh.pairs[:0], 0
	for _, id := range rc.Live(sh.lo, sh.hi) {
		if peer, ok := rc.Pick(id); ok {
			picked++
			if rc.Alive[peer] {
				pairs = append(pairs, Pair{A: id, B: peer})
			}
		}
	}
	sh.pairs = pairs
	sh.contacts, sh.messages = int64(picked), 2*int64(len(pairs)) // state travels both ways
}

// exchange executes the shard's exchanges strictly in initiator
// order: one ExchangePairs kernel call on the columnar backend, one
// Exchange per pair on classic agents.
func (e *Engine) exchange(sh *shard) {
	if e.col != nil {
		if len(sh.pairs) > 0 {
			e.colEx.ExchangePairs(&sh.rc, sh.pairs)
		}
		return
	}
	for _, p := range sh.pairs {
		e.agents[p.A].(Exchanger).Exchange(e.agents[p.B].(Exchanger))
	}
}

// end folds the round's received state on the shard's live hosts.
func (e *Engine) end(sh *shard) {
	if e.col != nil {
		e.col.EndRange(&sh.rc, sh.lo, sh.hi)
		return
	}
	for _, id := range sh.rc.Live(sh.lo, sh.hi) {
		e.agents[id].EndRound(e.round)
	}
}
