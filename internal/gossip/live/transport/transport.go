// Package transport decouples the live gossip engine from the medium
// its messages travel over: the same protocol code runs over
// in-process queues (Channel, the default), over real UDP sockets with
// wire-encoded datagrams (UDP), over framed reliable streams with
// bootstrap membership (TCP), or over any of them with injected loss
// and delay (Lossy) — the environment the paper's protocols are
// actually designed for.
//
// A Transport moves payloads between hosts identified by gossip.NodeID
// and owns the sent/dropped accounting. Delivery is at-most-once and
// unordered, like the saturated radio of the paper's §II: the
// protocols must tolerate both, so a transport never retries and never
// blocks the sender. That radio is implemented once: every transport
// holds the same receive plane (inbox.go) — a bounded queue per local
// host, a bounded batch queue per local span, non-blocking enqueue,
// overflow shed and counted per message, one dispatch for everything
// read off a socket, one Drain loop and one DrainBatch loop — and the
// media differ only in how a message reaches it. Channel pushes the
// payload value, detached (see Transport), straight onto the
// destination queue; UDP is sockets plus a reader per socket; TCP is a
// stream layer (stream.go: frames between addresses, writers with
// dial/backoff/coalescing, readers) and a membership layer
// (membership.go: the group table, the announce handshake) composed
// with the plane. The group-table helpers (groups.go) and the
// construction options (options.go) are shared the same way.
//
// The socket transports frame, route and count bytes; they know no
// protocol. A payload encodes itself (wire.Payload) behind a header of
// its own kind, and the reader decodes a body through the decoder its
// protocol package registered for that kind (wire.Register): the kind
// numbers live in one table in package wire, the codecs with the
// protocols. A payload with no wire form, or a body no decoder
// accepts, is one drop.
//
// The channel transport decides a message's fate at a single station,
// so each message is counted exactly once (sent XOR dropped); a
// networked transport has two stations — the sender's hand-off to the
// kernel and the receiver's queue — and a message that clears the
// first but dies at the second appears in both counters (see
// UDP.Sent).
package transport

import (
	"sync/atomic"

	"dynagg/internal/gossip"
)

// DefaultQueue is the per-host receive queue capacity used when a
// configuration leaves it zero — the same default the live engine has
// always used for its inboxes.
const DefaultQueue = 256

// Transport moves protocol payloads between live hosts. Self messages
// never reach a Transport: the live engine delivers a host's retained
// share in-process within the emitting tick (mass must not evaporate),
// so implementations only see cross-host traffic.
//
// A payload handed to Send is an Emit payload, valid only until its
// emitter's next BeginRound (see gossip.Agent): a transport that
// encodes it inside Send reads it in place, and one that keeps the
// value past Send returning keeps its gossip.Detacher copy.
//
// Implementations must be safe for concurrent use: every host's driver
// goroutine calls Send and Drain without external synchronization.
type Transport interface {
	// Send attempts to deliver payload from one host to another at the
	// sender's local tick, without blocking. It reports whether the
	// message was accepted toward delivery; false means the message is
	// gone (and counted in Dropped).
	Send(from, to gossip.NodeID, tick int, payload any) bool
	// Drain invokes fn for every payload currently queued for the
	// host, in arrival order, without blocking for more.
	Drain(id gossip.NodeID, fn func(payload any))
	// Sent returns the number of messages accepted toward delivery.
	Sent() int64
	// Dropped returns the number of messages lost in transit.
	Dropped() int64
	// Close releases any resources (sockets, goroutines) the transport
	// holds. Send after Close drops.
	Close() error
}

// Channel is the in-process transport: the shared receive plane plus a
// Send that skips the codec — payloads are queued detached, as the
// values their gossip.Detacher returns (or as they are, for a payload
// that owns its memory). It remains the live engine's default and keeps
// live runs free of sockets.
type Channel struct {
	// in.spans doubles as the batch plane's partition: every group is
	// local.
	in     *inbox
	sent   atomic.Int64
	closed atomic.Bool
}

var _ Transport = (*Channel)(nil)

// NewChannel returns a channel transport for hosts [0, hosts) with the
// given per-host queue capacity (0 means DefaultQueue). Its batch
// plane has a single group spanning every host; multi-shard columnar
// runs want NewChannelGroups.
func NewChannel(hosts, capacity int) *Channel {
	return NewChannelGroups(hosts, capacity, 1)
}

// NewChannelGroups is NewChannel with the batch plane split into
// `groups` contiguous host groups (clamped to [1, hosts]) — the
// in-process mirror of NewUDPLoopback's socket layout, so columnar
// shard counts can be exercised without sockets. The per-host plane is
// unaffected.
func NewChannelGroups(hosts, capacity, groups int) *Channel {
	return &Channel{in: newInbox(contiguousGroups(hosts, groups, ""), capacity)}
}

// Send implements Transport: a non-blocking push of the detached
// payload onto the destination host's queue. A host outside [0, hosts)
// is a counted drop.
func (c *Channel) Send(from, to gossip.NodeID, tick int, payload any) bool {
	return c.push(to, detach(payload))
}

// push queues a payload that already owns its memory.
func (c *Channel) push(to gossip.NodeID, payload any) bool {
	if c.closed.Load() {
		c.in.drop(1)
		return false
	}
	if !c.in.push(to, payload) {
		return false
	}
	c.sent.Add(1)
	return true
}

// detach returns a payload that owns its memory: the gossip.Detacher
// copy of one that may alias its emitter's scratch, the payload itself
// otherwise.
func detach(payload any) any {
	if d, ok := payload.(gossip.Detacher); ok {
		return d.Detach()
	}
	return payload
}

// Drain implements Transport.
func (c *Channel) Drain(id gossip.NodeID, fn func(payload any)) { c.in.drain(id, fn) }

// BatchGroups implements Batcher.
func (c *Channel) BatchGroups() int { return len(c.in.spans) }

// BatchGroup implements Batcher.
func (c *Channel) BatchGroup(g int) (lo, hi gossip.NodeID) {
	return c.in.spans[g].Lo, c.in.spans[g].Hi
}

// MaxBatchBody implements Batcher. The in-process transport has no
// physical datagram ceiling; it mirrors the UDP ceiling so chan and
// udp runs batch identically.
func (c *Channel) MaxBatchBody() int { return maxUDPPayload - maxBatchHeader }

// SendBatch implements Batcher: the body is copied onto the group's
// batch queue, non-blocking; overflow drops the whole batch, counted
// per message.
func (c *Channel) SendBatch(group, tick, msgs int, body []byte) bool {
	if c.closed.Load() || group < 0 || group >= len(c.in.spans) || len(body) > c.MaxBatchBody() {
		c.in.drop(msgs)
		return false
	}
	if !c.in.pushBatch(c.in.spans[group].Lo, msgs, body) {
		return false
	}
	c.sent.Add(int64(msgs))
	return true
}

// DrainBatch implements Batcher.
func (c *Channel) DrainBatch(group int, fn func(body []byte)) {
	if group >= 0 && group < len(c.in.spans) {
		c.in.drainBatch(c.in.spans[group].Lo, fn)
	}
}

// Sent implements Transport.
func (c *Channel) Sent() int64 { return c.sent.Load() }

// Dropped implements Transport.
func (c *Channel) Dropped() int64 { return c.in.dropped.Load() }

// Close implements Transport; the channel transport holds no
// resources beyond garbage-collected memory, but subsequent Sends
// drop, per the interface contract.
func (c *Channel) Close() error {
	c.closed.Store(true)
	return nil
}
