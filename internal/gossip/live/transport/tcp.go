package transport

import (
	"fmt"
	"time"

	"dynagg/internal/backoff"
	"dynagg/internal/gossip"
	"dynagg/internal/wire"
)

// TCP defaults. DefaultMaxFrame bounds every frame, send and receive,
// with room for the largest batch frame plus slack: oversized sends
// drop, and an oversized *claim* on a received stream is corruption
// and kills the connection. The backoff range keeps a dead peer from being hammered while
// letting a restarted one be reacquired within a couple of ticks.
const (
	DefaultMaxFrame    = 1 << 20
	DefaultDialTimeout = 2 * time.Second
	DefaultBackoffMin  = 20 * time.Millisecond
	DefaultBackoffMax  = 2 * time.Second
)

// LinkKiller is the failure-injection hook a connection-oriented
// transport exposes: where a datagram transport loses one message, a
// stream loses the *link*. Lossy uses it to translate its drop draws —
// a draw that would discard a datagram instead kills the connection
// carrying the stream, and reconnect-with-backoff models the outage
// window.
type LinkKiller interface {
	// KillLink severs the cached connection toward the group owning
	// host `to`, reporting whether a live connection was actually cut.
	// The next send toward that group redials.
	KillLink(to gossip.NodeID) bool
}

// Unwrapper is implemented by transport layers that forward to an
// inner transport (fault injectors, filters). AsTCP follows Unwrap
// chains so capability discovery works through any stack of wrappers.
type Unwrapper interface {
	// Unwrap returns the wrapped transport.
	Unwrap() Transport
}

// TCP carries the same self-describing wire envelopes as UDP — and the
// same columnar batch frames — over reliable streams: each message is
// one uvarint-length-prefixed frame (see internal/wire frame.go), so
// the byte stream recovers the datagram boundaries the kernel no
// longer draws.
//
// It is a composition of three parts. The stream layer (stream.go)
// caches one connection per peer group, dialed lazily by a dedicated
// writer goroutine that coalesces every queued frame into one buffered
// write burst; a broken connection is not an error, it is the medium:
// frames sent into the outage window drop (counted), and the writer
// redials with exponential backoff. The membership layer
// (membership.go, embedded: RegisterGroup, Announce, Covers, Groups
// and the rest of the table's methods are its own) maps host spans to
// those peers. The receive plane (inbox.go) is the one every transport
// shares. Loss injection composes the same way as for datagrams —
// Lossy over TCP converts drop draws into KillLink, so "20% loss"
// reads as "links fail this often", with the reconnect window, not a
// silent per-datagram coin flip, as the outage.
//
// Unlike UDP, the group table is mutable: RegisterGroup (fed by the
// Announce bootstrap handshake) inserts peer groups discovered at run
// time. Registration must finish before a Population binds — batch
// group indices shift as groups are inserted.
type TCP struct {
	// membership holds the group table and, as its st field, the stream
	// layer the table's peers belong to.
	membership
	in *inbox
}

var (
	_ Transport  = (*TCP)(nil)
	_ LinkKiller = (*TCP)(nil)
)

// NewTCP assembles the transport from options — Options shared with
// NewUDP (layout, locality, queues) and TCPOptions for the
// stream-specific knobs:
//
//	NewTCP(transport.WithGroups(a, b), transport.WithLocal(0))
//	NewTCP(transport.WithLoopbackGroups(1024, 8), transport.WithDialTimeout(time.Second))
//
// then binds one listener per local group and starts its acceptor and
// one writer per known group. Peer groups whose Addr is unknown (or
// undiscovered — see RegisterGroup/Announce) drop traffic until their
// address is learned, exactly like an out-of-range radio.
func NewTCP(opts ...TCPOption) (*TCP, error) {
	var set settings
	for _, opt := range opts {
		opt.applyTCP(&set)
	}
	if err := validateLayout(set.groups, set.local); err != nil {
		return nil, err
	}
	if set.dialTimeout <= 0 {
		set.dialTimeout = DefaultDialTimeout
	}
	if set.backoffMin <= 0 {
		set.backoffMin = DefaultBackoffMin
	}
	if set.backoffMax < set.backoffMin {
		set.backoffMax = DefaultBackoffMax
		if set.backoffMax < set.backoffMin {
			set.backoffMax = set.backoffMin
		}
	}
	t := &TCP{in: newInbox(localSpans(set.groups, set.local), set.queueCapacity)}
	// Outboxes share the receive queues' capacity.
	t.st = newStreams(set.dialTimeout,
		backoff.Policy{Min: set.backoffMin, Max: set.backoffMax, Jitter: 0.1},
		t.in.capacity, &t.in.bufs, t.handleFrame)
	t.locals = make(map[gossip.NodeID]bool, len(set.local))
	v := &groupView{groups: append([]Group(nil), set.groups...)}
	for _, gi := range set.local {
		// Listen resolves the port (":0" ephemeral); record the real
		// address so peers can be told it.
		bound, err := t.st.listen(v.groups[gi].Addr)
		if err != nil {
			t.st.close()
			return nil, fmt.Errorf("transport: bind group %d: %w", gi, err)
		}
		v.groups[gi].Addr = bound
		t.locals[v.groups[gi].Lo] = true
	}
	for _, g := range v.groups {
		v.peers = append(v.peers, t.st.open(g.Addr))
	}
	t.view.Store(v)
	t.st.serve()
	return t, nil
}

// NewTCPLoopback is the single-process convenience constructor,
// mirroring NewUDPLoopback.
func NewTCPLoopback(hosts, groups, queueCapacity int) (*TCP, error) {
	return NewTCP(WithLoopbackGroups(hosts, groups), WithQueueCapacity(queueCapacity))
}

// handleFrame is the stream layer's frame callback: bootstrap control
// frames go to the membership layer, everything else to the receive
// plane. An undecodable frame is one drop.
func (t *TCP) handleFrame(frame []byte, reply func(frame []byte)) {
	h, rest, err := wire.DecodeHeader(frame)
	switch {
	case err != nil:
		t.in.drop(1)
	case h.Kind == kindAnnounce:
		if !t.handleAnnounce(rest, reply) {
			t.in.drop(1)
		}
	case h.Kind == kindMembership:
		// Unsolicited (not an announce reply): merge what it lists,
		// quietly — extra knowledge never hurts, and this is how the
		// cluster learns a restarted observer's new address.
		_ = t.mergeMembership(rest)
	default:
		t.in.deliver(h, rest)
	}
}

// Send implements Transport: wire-encode one envelope, frame it, and
// queue it on the destination group's outbox. Acceptance means the
// frame is in flight toward the writer goroutine — it is counted Sent
// only once handed to the kernel, and becomes a counted drop if the
// outbox is full, the connection is down and unredialable, or the
// write fails; gossip tolerates all of it by design.
func (t *TCP) Send(from, to gossip.NodeID, tick int, payload any) bool {
	v := t.view.Load()
	gi := groupOf(v.groups, to)
	if gi < 0 || t.st.closed.Load() {
		t.in.drop(1)
		return false
	}
	bp, buf := t.st.newFrame()
	env, err := appendEnvelope(buf, from, to, tick, payload)
	if err != nil {
		t.st.bufs.Put(bp)
		t.in.drop(1)
		return false
	}
	return v.peers[gi].send(bp, env, 1)
}

// Drain implements Transport.
func (t *TCP) Drain(id gossip.NodeID, fn func(payload any)) { t.in.drain(id, fn) }

// KillLink implements LinkKiller: sever the cached connection toward
// the group owning `to`.
func (t *TCP) KillLink(to gossip.NodeID) bool {
	v := t.view.Load()
	gi := groupOf(v.groups, to)
	return gi >= 0 && v.peers[gi].kill()
}

// Kills returns the number of connections severed by KillLink — the
// link-failure count a Lossy-over-TCP run uses where a datagram run
// would read drop counts.
func (t *TCP) Kills() int64 { return t.st.kills.Load() }

// Reconnects returns the number of times a peer writer successfully
// re-established a connection after a previous one died (by write
// failure, remote close, or KillLink). The first dial toward a peer
// is not a reconnect.
func (t *TCP) Reconnects() int64 { return t.st.reconnects.Load() }

// OverflowDrops returns the number of messages shed because a bounded
// queue was full: sender outboxes, receiver batch queues, and
// receiver host inboxes. A subset of Dropped — the backpressure
// share, as opposed to losses from dead connections — kept separately
// so chaos runs can tell link failure from backpressure on /statusz.
func (t *TCP) OverflowDrops() int64 { return t.st.overflow.Load() + t.in.overflow.Load() }

// AsTCP unwraps capability-forwarding layers (Lossy, or anything
// exposing Unwrap) down to the TCP transport, if one is at the bottom
// of the stack.
func AsTCP(tr Transport) (*TCP, bool) {
	for {
		switch v := tr.(type) {
		case *TCP:
			return v, true
		case *Lossy:
			tr = v.T
		case Unwrapper:
			tr = v.Unwrap()
		default:
			return nil, false
		}
	}
}

// BatchGroups implements Batcher.
func (t *TCP) BatchGroups() int { return len(t.view.Load().groups) }

// BatchGroup implements Batcher.
func (t *TCP) BatchGroup(g int) (lo, hi gossip.NodeID) {
	gr := t.view.Load().groups[g]
	return gr.Lo, gr.Hi
}

// MaxBatchBody implements Batcher: the UDP ceiling, so chan, udp, and
// tcp runs batch identically (DefaultMaxFrame is far above it).
func (t *TCP) MaxBatchBody() int { return maxUDPPayload - maxBatchHeader }

// SendBatch implements Batcher: one frame carrying a whole shard's
// wave, queued on the destination group's outbox. The header's To is
// the group's Lo host id, which stays stable while bootstrap is still
// inserting groups and shifting indices. Failure modes are counted
// drops of all msgs messages, mirroring Send.
func (t *TCP) SendBatch(group, tick, msgs int, body []byte) bool {
	v := t.view.Load()
	if t.st.closed.Load() || group < 0 || group >= len(v.groups) || len(body) > t.MaxBatchBody() {
		t.in.drop(msgs)
		return false
	}
	bp, buf := t.st.newFrame()
	buf = wire.AppendHeader(buf, wire.Header{
		Kind: kindColumnarBatch, To: int32(v.groups[group].Lo), From: int32(msgs), Tick: int32(tick),
	})
	return v.peers[group].send(bp, append(buf, body...), msgs)
}

// DrainBatch implements Batcher.
func (t *TCP) DrainBatch(group int, fn func(body []byte)) {
	if v := t.view.Load(); group >= 0 && group < len(v.groups) {
		t.in.drainBatch(v.groups[group].Lo, fn)
	}
}

// Sent implements Transport: frames handed to the kernel. As with UDP,
// "sent" does not imply delivery — a frame can be counted Sent and
// then die with its connection before the flush, or be counted again
// in Dropped when the receiver's queue sheds it.
func (t *TCP) Sent() int64 { return t.st.sent.Load() }

// Dropped implements Transport: encode failures, unroutable or
// unreachable destinations, outbox and receive-queue overflow, frames
// lost to broken connections.
func (t *TCP) Dropped() int64 { return t.st.dropped.Load() + t.in.dropped.Load() }

// Close implements Transport: stop accepting, sever every connection,
// and wait for the writers, readers, and acceptors to exit.
func (t *TCP) Close() error { return t.st.close() }
