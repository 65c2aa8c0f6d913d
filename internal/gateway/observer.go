package gateway

import (
	"sync"

	"dynagg/internal/gossip"
	"dynagg/internal/protocol/multi"
	"dynagg/internal/xrand"
)

// observerAgent wraps the observer's multi.Node behind a mutex the
// HTTP handlers share with the engine's tick loop. The live engine
// already serializes all agent callbacks per host, so the lock never
// contends with itself — it exists purely so readers see a coherent
// mid-tick state (the engine's own per-host locks are unexported).
//
// Beyond locking, the wrapper keeps what serving needs and the raw
// protocol node does not:
//
//   - the current tick, so responses can report read time;
//   - per-aggregate last-heard ticks (mass arrival observed in
//     Receive), so staleness is reportable;
//   - a trailing ring of per-tick estimates per aggregate. An
//     observer holds only a sliver of mass (it retains half its
//     decayed share and receives on the order of one parcel per
//     tick), so its instantaneous v/w ratio swings ±25% tick to
//     tick even when the population mean is exact. The served value
//     is the ring mean; "converged" means the ring has filled once
//     and the network-size estimate is above zero.
type observerAgent struct {
	mu   sync.Mutex
	node *multi.Node

	curTick int
	// size is the network-size estimate as of the last EndRound that
	// read one above zero, and sizeTick that round (see sizeLocked).
	// The node derives it from the matrix as it stands, and a handler
	// can read between a tick's aging and its merges; serving the
	// tick-end value keeps reads from seeing that half-applied state.
	size      float64
	sizeTick  int
	lastHeard map[string]int
	rings     map[string]*ring
}

// ring is the trailing window of the last DefaultSmoothWindow per-tick
// estimates.
type ring struct {
	buf [DefaultSmoothWindow]float64
	n   int // samples pushed, capped at len(buf) for mean purposes
	i   int
}

func (r *ring) push(v float64) {
	r.buf[r.i] = v
	r.i = (r.i + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

func (r *ring) mean() float64 {
	if r.n == 0 {
		return 0
	}
	var s float64
	for _, v := range r.buf[:r.n] {
		s += v
	}
	return s / float64(r.n)
}

func (r *ring) full() bool { return r.n == len(r.buf) }

func newObserverAgent(node *multi.Node) *observerAgent {
	return &observerAgent{
		node:      node,
		lastHeard: make(map[string]int),
		rings:     make(map[string]*ring),
	}
}

// ---- gossip.Agent, delegated under the lock ----

var _ gossip.Agent = (*observerAgent)(nil)

// BeginRound implements gossip.Agent.
func (o *observerAgent) BeginRound(round int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.curTick = round
	o.node.BeginRound(round)
}

// Receive implements gossip.Agent, additionally recording mass
// arrival per aggregate for staleness reporting.
func (o *observerAgent) Receive(p any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	switch v := p.(type) {
	case *multi.Packed:
		for name := range v.Names() {
			o.lastHeard[string(name)] = o.curTick
		}
	case multi.Bundle:
		o.heard(v.Masses)
	case *multi.Bundle:
		o.heard(v.Masses)
	}
	o.node.Receive(p)
}

func (o *observerAgent) heard(masses []multi.NamedMass) {
	for i := range masses {
		o.lastHeard[masses[i].Name] = o.curTick
	}
}

// Emit implements gossip.Agent.
func (o *observerAgent) Emit(round int, rng *xrand.Rand, pick gossip.PeerPicker) []gossip.Envelope {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.node.Emit(round, rng, pick)
}

// EndRound implements gossip.Agent: after the node folds its inbox,
// the tick's raw estimates feed the smoothing rings.
func (o *observerAgent) EndRound(round int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.node.EndRound(round)
	if size, _ := o.node.Size(); size > 0 {
		o.size, o.sizeTick = size, round
	}
	for _, name := range o.node.Names() {
		avg, ok := o.node.Average(name)
		if !ok {
			continue // no mass yet: nothing to smooth
		}
		r := o.rings[name]
		if r == nil {
			r = &ring{}
			o.rings[name] = r
		}
		r.push(avg)
	}
}

// Estimate implements gossip.Agent (the network-size estimate, as for
// the underlying multi node).
func (o *observerAgent) Estimate() (float64, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.node.Estimate()
}

// ---- read side, shared with the HTTP handlers ----

type readStatus int

const (
	readOK readStatus = iota
	readUnknown
	readNotConverged
)

// read snapshots one aggregate for serving.
func (o *observerAgent) read(name string) (aggregateBody, readStatus) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.readLocked(name)
}

func (o *observerAgent) readLocked(name string) (aggregateBody, readStatus) {
	if _, ok := o.node.Average(name); !ok {
		// Average reports !ok both for unknown names and for known
		// names that have not received mass; distinguish via Names.
		known := false
		for _, n := range o.node.Names() {
			if n == name {
				known = true
				break
			}
		}
		if !known {
			return aggregateBody{}, readUnknown
		}
		return aggregateBody{}, readNotConverged
	}
	r := o.rings[name]
	if !o.convergedLocked(r) {
		return aggregateBody{}, readNotConverged
	}
	avg := r.mean()
	heard, ok := o.lastHeard[name]
	staleness := -1
	if ok {
		staleness = o.curTick - heard
	}
	return aggregateBody{
		Name:           name,
		Average:        avg,
		Sum:            avg * o.size,
		Size:           o.size,
		Tick:           o.curTick,
		StalenessTicks: staleness,
	}, readOK
}

// sizeLocked returns the size estimate reads serve: the last one above
// zero, while it is at most a smoothing window old, and 0 after. An
// observer hears about one counter matrix a tick, so in a live
// population its level-0 counters can age past f(0) between two and
// its matrix read 0 for a tick or two; the last estimate bridges such a
// gap. A size that stays 0 for a whole window is no population at all:
// no worker's matrix reaches the observer, or every worker has exited.
func (o *observerAgent) sizeLocked() float64 {
	if o.curTick-o.sizeTick > DefaultSmoothWindow {
		return 0
	}
	return o.size
}

// convergedLocked reports whether an aggregate with smoothing ring r
// may be served: the ring has filled once and the size estimate is
// above zero (a sum read off a size of 0 would be 0 too).
func (o *observerAgent) convergedLocked(r *ring) bool {
	return r != nil && r.full() && o.sizeLocked() > 0
}

// readAll snapshots every converged aggregate (names still warming up
// are listed by /statusz, not here), plus the size estimate and tick.
func (o *observerAgent) readAll() ([]aggregateBody, float64, int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	var out []aggregateBody
	for _, name := range o.node.Names() {
		if body, st := o.readLocked(name); st == readOK {
			out = append(out, body)
		}
	}
	return out, o.sizeLocked(), o.curTick
}

// register adds a named aggregate (zero-weight, as observers hold no
// mass); it reports whether the name was new. The registration
// propagates by gossip: the observer's next bundles carry the name,
// and hosts with a resolver adopt it.
func (o *observerAgent) register(name string) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.node.Register(name, 0)
}

// tick returns the observer's current gossip tick.
func (o *observerAgent) tick() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.curTick
}

// aggState is one aggregate's serving status for /statusz.
type aggState struct {
	name      string
	converged bool
	staleness int // ticks since mass last arrived; -1 if never
}

// statuses reports every known aggregate's serving state.
func (o *observerAgent) statuses() []aggState {
	o.mu.Lock()
	defer o.mu.Unlock()
	var out []aggState
	for _, name := range o.node.Names() {
		r := o.rings[name]
		staleness := -1
		if heard, ok := o.lastHeard[name]; ok {
			staleness = o.curTick - heard
		}
		out = append(out, aggState{
			name:      name,
			converged: o.convergedLocked(r),
			staleness: staleness,
		})
	}
	return out
}
