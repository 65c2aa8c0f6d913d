package main

import (
	"encoding/binary"
	"sync/atomic"
	"time"

	"dynagg/internal/gossip"
	"dynagg/internal/gossip/live"
	"dynagg/internal/gossip/live/transport"
	"dynagg/internal/wire"
	"dynagg/internal/xrand"
)

// Forwarding decorators: every layer is measured from outside, by
// wrapping the exported interface it is driven through. A decorator
// forwards every call unchanged (the transparency tests pin that) and
// records, at the boundary, a count and the time spent beneath it.
//
// Boundaries crossed once per host range (columnar kernels, batches)
// get a span each. Boundaries crossed once per message or per host are
// too hot for that — 240M messages in one run — so they are counted
// and timed either on every call into an atomic (cheap next to the
// work: a boxed agent call, a socket write) or on one call in
// sampleEvery picked by host id, which needs no shared counter.

// sampleEvery is the sampling period of the per-message boundaries;
// sampled picks id&(sampleEvery-1) == 0.
const sampleEvery = 1024

// clock accumulates the time spent under one boundary and how many
// units (hosts, messages) that time covered.
type clock struct {
	ns    atomic.Int64
	calls atomic.Int64
	units atomic.Int64
}

func (c *clock) add(d time.Duration, units int) {
	c.ns.Add(d.Nanoseconds())
	c.calls.Add(1)
	c.units.Add(int64(units))
}

// sample is add for a one-in-sampleEvery boundary: the timer's own
// cost is comparable to the call, so it is subtracted.
func (c *clock) sample(d time.Duration) {
	d -= timerCost
	if d < 0 {
		d = 0
	}
	c.add(d, 1)
}

func (c *clock) total() time.Duration { return time.Duration(c.ns.Load()) }

// perUnit is nanoseconds per unit (0 before any unit was seen).
func (c *clock) perUnit() float64 {
	u := c.units.Load()
	if u == 0 {
		return 0
	}
	return float64(c.ns.Load()) / float64(u)
}

// ---- columnar kernels ----

// colDecor decorates a columnar protocol: the four range kernels the
// round engine and the live engine drive, and the two wire hooks of
// the live batch plane. With timed false only the hooks run (the
// untraced live run uses onEnd to read estimates on the driver's own
// goroutine, where that is race-free).
type colDecor struct {
	inner live.ColumnarProtocol
	tr    *tracer
	timed bool
	// parent returns the span (round or tick) the range starting at lo
	// belongs to.
	parent func(lo int) int32
	// onBegin and onEnd run after the inner kernel.
	onBegin func(rc *gossip.ColRound, lo, hi int)
	onEnd   func(rc *gossip.ColRound, lo, hi int)

	begin, emit, deliver, end clock
	wireOut, wireIn           clock
}

var _ live.ColumnarProtocol = (*colDecor)(nil)

func (d *colDecor) Len() int { return d.inner.Len() }

func (d *colDecor) span(name string, lo int, start time.Time, dur time.Duration) {
	if d.tr != nil {
		var p int32
		if d.parent != nil {
			p = d.parent(lo)
		}
		d.tr.add(name, p, start, dur)
	}
}

func (d *colDecor) BeginRange(rc *gossip.ColRound, lo, hi int) {
	if d.timed {
		t := time.Now()
		d.inner.BeginRange(rc, lo, hi)
		dur := time.Since(t)
		d.begin.add(dur, hi-lo)
		d.span("protocol.begin", lo, t, dur)
	} else {
		d.inner.BeginRange(rc, lo, hi)
	}
	if d.onBegin != nil {
		d.onBegin(rc, lo, hi)
	}
}

func (d *colDecor) EmitRange(rc *gossip.ColRound, lo, hi int) {
	if !d.timed {
		d.inner.EmitRange(rc, lo, hi)
		return
	}
	t := time.Now()
	d.inner.EmitRange(rc, lo, hi)
	dur := time.Since(t)
	d.emit.add(dur, hi-lo)
	d.span("protocol.emit", lo, t, dur)
}

func (d *colDecor) Deliver(rc *gossip.ColRound, msgs []gossip.ColMsg) {
	if !d.timed {
		d.inner.Deliver(rc, msgs)
		return
	}
	t := time.Now()
	d.inner.Deliver(rc, msgs)
	dur := time.Since(t)
	d.deliver.add(dur, len(msgs))
	lo := 0
	if len(msgs) > 0 {
		lo = int(msgs[0].To)
	}
	d.span("protocol.deliver", lo, t, dur)
}

func (d *colDecor) EndRange(rc *gossip.ColRound, lo, hi int) {
	if d.timed {
		t := time.Now()
		d.inner.EndRange(rc, lo, hi)
		dur := time.Since(t)
		d.end.add(dur, hi-lo)
		d.span("protocol.end", lo, t, dur)
	} else {
		d.inner.EndRange(rc, lo, hi)
	}
	if d.onEnd != nil {
		d.onEnd(rc, lo, hi)
	}
}

func (d *colDecor) Estimate(id gossip.NodeID) (float64, bool) { return d.inner.Estimate(id) }

func (d *colDecor) WireKind() uint8 { return d.inner.WireKind() }

func (d *colDecor) AppendWire(dst []byte, m gossip.ColMsg) []byte {
	if d.timed && m.To&(sampleEvery-1) == 0 {
		t := time.Now()
		dst = d.inner.AppendWire(dst, m)
		d.wireOut.sample(time.Since(t))
		return dst
	}
	return d.inner.AppendWire(dst, m)
}

func (d *colDecor) DeliverWire(to gossip.NodeID, src []byte) ([]byte, error) {
	if d.timed && to&(sampleEvery-1) == 0 {
		t := time.Now()
		rest, err := d.inner.DeliverWire(to, src)
		d.wireIn.sample(time.Since(t))
		return rest, err
	}
	return d.inner.DeliverWire(to, src)
}

// ---- classic per-host agents ----

// agentClocks is shared by all decorated agents of one population.
type agentClocks struct {
	begin, emit, receive, end clock
	tr                        *tracer
	parent                    int32
	// off suspends the timing (calls are forwarded bare): a paced
	// cluster measures its tracing overhead by alternating windows with
	// and without it on the same engines.
	off atomic.Bool
}

// agentDecor decorates one boxed per-host agent. It forwards
// EmitAppend so the round engine keeps its allocation-free path; the
// inner agent must implement it (all of this repository's do). A call
// costs about as much as reading the clock, so every timing has the
// timer's own cost subtracted.
type agentDecor struct {
	inner gossip.AppendEmitter
	id    gossip.NodeID
	c     *agentClocks
}

var _ gossip.AppendEmitter = (*agentDecor)(nil)

func decorateAgents(agents []gossip.Agent, lo gossip.NodeID, c *agentClocks) []gossip.Agent {
	out := make([]gossip.Agent, len(agents))
	for i, a := range agents {
		out[i] = &agentDecor{inner: a.(gossip.AppendEmitter), id: lo + gossip.NodeID(i), c: c}
	}
	return out
}

func (a *agentDecor) BeginRound(round int) {
	if a.c.off.Load() {
		a.inner.BeginRound(round)
		return
	}
	t := time.Now()
	a.inner.BeginRound(round)
	a.c.begin.sample(time.Since(t))
}

func (a *agentDecor) Emit(round int, rng *xrand.Rand, pick gossip.PeerPicker) []gossip.Envelope {
	if a.c.off.Load() {
		return a.inner.Emit(round, rng, pick)
	}
	t := time.Now()
	envs := a.inner.Emit(round, rng, pick)
	d := time.Since(t)
	a.c.emit.sample(d)
	if a.c.tr != nil && (int(a.id)+round)&(sampleEvery-1) == 0 {
		a.c.tr.add("protocol.emit", a.c.parent, t, d)
	}
	return envs
}

func (a *agentDecor) EmitAppend(dst []gossip.Envelope, round int, rng *xrand.Rand, pick gossip.PeerPicker) []gossip.Envelope {
	t := time.Now()
	dst = a.inner.EmitAppend(dst, round, rng, pick)
	a.c.emit.sample(time.Since(t))
	return dst
}

func (a *agentDecor) Receive(payload any) {
	if a.c.off.Load() {
		a.inner.Receive(payload)
		return
	}
	t := time.Now()
	a.inner.Receive(payload)
	a.c.receive.sample(time.Since(t))
}

func (a *agentDecor) EndRound(round int) {
	if a.c.off.Load() {
		a.inner.EndRound(round)
		return
	}
	t := time.Now()
	a.inner.EndRound(round)
	a.c.end.sample(time.Since(t))
}

func (a *agentDecor) Estimate() (float64, bool) { return a.inner.Estimate() }

// ---- transport ----

// transportDecor decorates a transport's per-host plane and, when the
// inner transport has one, its batch plane. Unwrap keeps capability
// discovery (transport.AsTCP, hence live.Bootstrap) working through it.
type transportDecor struct {
	inner  transport.Transport
	batch  transport.Batcher // nil when inner has no batch plane
	tr     *tracer
	parent int32
	// parentOf, when set, names the span a batch call belongs to: the
	// tick of the shard that drains the group, or that sent at this
	// tick. It overrides parent for the batch plane.
	parentOf func(group, tick int, send bool) int32
	off      *atomic.Bool // non-nil and true: per-host plane forwarded bare

	send, drain           clock // per-host plane; drain units are messages
	drainCalls            atomic.Int64
	sendBatch, drainBatch clock // batch plane; units are messages / batches
	batchBytes            atomic.Int64
	batchMsgs             atomic.Int64
	batches               atomic.Int64
	batchDropped          atomic.Int64
}

var (
	_ transport.Transport = (*transportDecor)(nil)
	_ transport.Batcher   = (*transportDecor)(nil)
	_ transport.Unwrapper = (*transportDecor)(nil)
)

func decorateTransport(inner transport.Transport, tr *tracer) *transportDecor {
	d := &transportDecor{inner: inner, tr: tr}
	d.batch, _ = transport.AsBatcher(inner)
	return d
}

func (d *transportDecor) Unwrap() transport.Transport { return d.inner }

func (d *transportDecor) Send(from, to gossip.NodeID, tick int, payload any) bool {
	if d.off != nil && d.off.Load() {
		return d.inner.Send(from, to, tick, payload)
	}
	t := time.Now()
	ok := d.inner.Send(from, to, tick, payload)
	dur := time.Since(t)
	d.send.add(dur, 1)
	if d.tr != nil && (int(from)+tick)&(sampleEvery-1) == 0 {
		d.tr.add("transport.send", d.parent, t, dur)
	}
	return ok
}

func (d *transportDecor) Drain(id gossip.NodeID, fn func(payload any)) {
	if d.off != nil && d.off.Load() {
		d.inner.Drain(id, fn)
		return
	}
	// The callback is the protocol's Receive, timed by its own
	// decorator; subtract it so the drain clock holds transport time.
	var inner time.Duration
	msgs := 0
	t := time.Now()
	d.inner.Drain(id, func(p any) {
		t1 := time.Now()
		fn(p)
		inner += time.Since(t1)
		msgs++
	})
	dur := time.Since(t) - inner
	d.drain.add(dur, msgs)
	d.drainCalls.Add(1)
}

func (d *transportDecor) Sent() int64    { return d.inner.Sent() }
func (d *transportDecor) Dropped() int64 { return d.inner.Dropped() }
func (d *transportDecor) Close() error   { return d.inner.Close() }

func (d *transportDecor) BatchGroups() int {
	if d.batch == nil {
		return 0
	}
	return d.batch.BatchGroups()
}

func (d *transportDecor) BatchGroup(g int) (lo, hi gossip.NodeID) { return d.batch.BatchGroup(g) }
func (d *transportDecor) MaxBatchBody() int                       { return d.batch.MaxBatchBody() }

func (d *transportDecor) SendBatch(group, tick, msgs int, body []byte) bool {
	t := time.Now()
	ok := d.batch.SendBatch(group, tick, msgs, body)
	dur := time.Since(t)
	d.sendBatch.add(dur, msgs)
	d.batches.Add(1)
	d.batchMsgs.Add(int64(msgs))
	lo, _ := d.batch.BatchGroup(group)
	d.batchBytes.Add(int64(len(body) + batchHeaderBytes(int(lo), tick, msgs, len(body))))
	if !ok {
		d.batchDropped.Add(int64(msgs))
	}
	d.tr.add("transport.sendbatch", d.batchParent(group, tick, true), t, dur)
	return ok
}

func (d *transportDecor) batchParent(group, tick int, send bool) int32 {
	if d.parentOf != nil {
		return d.parentOf(group, tick, send)
	}
	return d.parent
}

func (d *transportDecor) DrainBatch(group int, fn func(body []byte)) {
	var inner time.Duration
	n := 0
	t := time.Now()
	d.batch.DrainBatch(group, func(body []byte) {
		t1 := time.Now()
		fn(body)
		inner += time.Since(t1)
		n++
	})
	total := time.Since(t)
	d.drainBatch.add(total-inner, n)
	if n > 0 {
		d.tr.add("transport.drainbatch", d.batchParent(group, 0, false), t, total)
	}
}

// batchHeaderBytes is what the stream transport spends on framing one
// batch beside its body: the length prefix and the envelope header
// (version, kind, three uvarints). It mirrors transport.TCP.SendBatch,
// which the decorator cannot see into.
func batchHeaderBytes(groupLo, tick, msgs, body int) int {
	var buf [32]byte
	h := wire.AppendHeader(buf[:0], wire.Header{Kind: 1, To: int32(groupLo), From: int32(msgs), Tick: int32(tick)})
	var lenBuf [binary.MaxVarintLen64]byte
	return len(h) + binary.PutUvarint(lenBuf[:], uint64(len(h)+body))
}
