package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dynagg/internal/gossip"
	"dynagg/internal/xrand"
)

// Lossy layers message loss (and optionally delivery delay) over any
// Transport, making convergence-under-loss a first-class scenario
// instead of an emergent property of full inboxes:
//
//	lt := &transport.Lossy{T: transport.NewChannel(n, 0), P: 0.2, Seed: 9}
//
// Each Send is dropped with independent probability P; surviving
// messages are forwarded to the inner transport, after Delay(±Jitter)
// if one is configured. Dropped counts injector losses plus the inner
// transport's own.
type Lossy struct {
	// T is the underlying transport. Required.
	T Transport
	// P is the per-message drop probability in [0, 1].
	P float64
	// Seed drives the injector's private PRNG, so a lossy run is as
	// reproducible as its scheduling allows.
	Seed uint64
	// Delay postpones each surviving delivery; Jitter adds a uniform
	// random extra in [0, Jitter). Zero delivers inline.
	Delay  time.Duration
	Jitter time.Duration

	// mu guards the lazily-built rng AND the closed/delayed pair: a
	// delayed delivery is only ever registered while the injector is
	// open, so Close's Wait cannot race a WaitGroup Add.
	mu      sync.Mutex
	rng     *xrand.Rand
	closed  bool
	dropped atomic.Int64
	delayed sync.WaitGroup
}

var (
	_ Transport = (*Lossy)(nil)
	_ Unwrapper = (*Lossy)(nil)
)

// draw decides one transmission's fate — the injector's single loss
// and delay decision, shared by Send and SendBatch. ok false means the
// msgs messages are gone and already counted: lost reports a loss draw
// (the caller severs the link on a stream transport), otherwise the
// injector was closed. A positive wait has registered one delayed
// delivery the caller must schedule and mark Done.
func (l *Lossy) draw(msgs int) (wait time.Duration, lost, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		l.dropped.Add(int64(msgs))
		return 0, false, false
	}
	if l.rng == nil {
		l.rng = xrand.New(l.Seed)
	}
	if l.rng.Prob(l.P) {
		l.dropped.Add(int64(msgs))
		return 0, true, false
	}
	if l.Delay > 0 {
		wait = l.Delay
		if l.Jitter > 0 {
			wait += time.Duration(l.rng.Float64() * float64(l.Jitter))
		}
		l.delayed.Add(1)
	}
	return wait, false, true
}

// Send implements Transport.
func (l *Lossy) Send(from, to gossip.NodeID, tick int, payload any) bool {
	wait, lost, ok := l.draw(1)
	if !ok {
		if lost {
			l.KillLink(to)
		}
		return false
	}
	if wait > 0 {
		// The payload outlives this call, and its emitter's next round:
		// detach it once here, and hand a Channel the copy as owned.
		held := detach(payload)
		time.AfterFunc(wait, func() {
			defer l.delayed.Done()
			if c, ok := l.T.(*Channel); ok {
				c.push(to, held)
			} else {
				l.T.Send(from, to, tick, held)
			}
		})
		// In flight: it will be counted sent or dropped on arrival.
		return true
	}
	return l.T.Send(from, to, tick, payload)
}

// Unwrap implements Unwrapper: the injector forwards to T.
func (l *Lossy) Unwrap() Transport { return l.T }

// KillLink implements LinkKiller by forwarding, so injector stacks
// keep the capability visible. It is also how the injector's own loss
// draws land on a connection-oriented inner transport: a reliable
// stream has no silent datagram loss, so "this message was lost"
// becomes "the link carrying it failed" — the connection is severed
// and the reconnect window models the outage. Datagram transports
// don't implement LinkKiller and are unaffected.
func (l *Lossy) KillLink(to gossip.NodeID) bool {
	if lk, ok := l.T.(LinkKiller); ok {
		return lk.KillLink(to)
	}
	return false
}

// Drain implements Transport.
func (l *Lossy) Drain(id gossip.NodeID, fn func(payload any)) { l.T.Drain(id, fn) }

// Sent implements Transport.
func (l *Lossy) Sent() int64 { return l.T.Sent() }

// Dropped implements Transport: injected drops plus the inner
// transport's.
func (l *Lossy) Dropped() int64 { return l.dropped.Load() + l.T.Dropped() }

// Close implements Transport: stops accepting messages, waits for
// already-scheduled delayed deliveries, then closes the inner
// transport.
func (l *Lossy) Close() error {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	l.delayed.Wait()
	return l.T.Close()
}

// Validate reports whether the injector is usable.
func (l *Lossy) Validate() error {
	if l.T == nil {
		return fmt.Errorf("transport: Lossy.T is nil")
	}
	if l.P < 0 || l.P > 1 {
		return fmt.Errorf("transport: Lossy.P %v outside [0,1]", l.P)
	}
	return nil
}

// batcher returns the inner transport's batch plane, nil if it has
// none.
func (l *Lossy) batcher() Batcher {
	b, _ := l.T.(Batcher)
	return b
}

// BatchGroups implements Batcher: the inner transport's group count, 0
// when the inner transport has no batch plane (AsBatcher then reports
// the whole stack as batchless).
func (l *Lossy) BatchGroups() int {
	if b := l.batcher(); b != nil {
		return b.BatchGroups()
	}
	return 0
}

// BatchGroup implements Batcher.
func (l *Lossy) BatchGroup(g int) (lo, hi gossip.NodeID) { return l.batcher().BatchGroup(g) }

// MaxBatchBody implements Batcher.
func (l *Lossy) MaxBatchBody() int { return l.batcher().MaxBatchBody() }

// SendBatch implements Batcher: one loss draw per batch — a batch is
// one datagram, and the injector models datagram loss — so all msgs
// messages drop (or survive) together; the per-message drop *rate*
// still converges to P because the draw is independent of batch size.
func (l *Lossy) SendBatch(group, tick, msgs int, body []byte) bool {
	inner := l.batcher()
	if inner == nil {
		l.dropped.Add(int64(msgs))
		return false
	}
	wait, lost, ok := l.draw(msgs)
	if !ok {
		if lost {
			// On a stream transport the lost "datagram" is a failed link:
			// sever the connection toward the destination group.
			lo, _ := inner.BatchGroup(group)
			l.KillLink(lo)
		}
		return false
	}
	if wait > 0 {
		// The caller reuses body after we return, so a delayed batch
		// needs its own copy.
		held := append([]byte(nil), body...)
		time.AfterFunc(wait, func() {
			defer l.delayed.Done()
			inner.SendBatch(group, tick, msgs, held)
		})
		return true
	}
	return inner.SendBatch(group, tick, msgs, body)
}

// DrainBatch implements Batcher: receive-side pass-through, like Drain.
func (l *Lossy) DrainBatch(group int, fn func(body []byte)) { l.batcher().DrainBatch(group, fn) }
