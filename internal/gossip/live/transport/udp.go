package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"dynagg/internal/gossip"
	"dynagg/internal/wire"
)

// UDP sends every payload through the internal/wire binary encodings —
// the encodings built for the paper's §IV-B bandwidth argument —
// prefixed with a self-describing envelope header (protocol kind,
// destination, sender, tick), over real loopback sockets. Message loss
// is not simulated here; it happens, in the kernel's socket buffers,
// whenever receivers fall behind. The transport itself is only the
// sockets: one reader per local socket feeds the shared receive plane.
type UDP struct {
	groups []Group
	// addrs and conns are parallel to groups; conns is nil at remote
	// groups, and first is some local socket for traffic sent on behalf
	// of hosts that are not local.
	addrs  []atomic.Pointer[net.UDPAddr]
	conns  []*net.UDPConn
	first  *net.UDPConn
	in     *inbox
	sent   atomic.Int64
	closed atomic.Bool
	wg     sync.WaitGroup
}

var _ Transport = (*UDP)(nil)

// maxDatagram bounds an encoded datagram, send and receive: 64 KiB,
// the practical UDP ceiling. Messages that encode larger are dropped.
const maxDatagram = 64 << 10

// NewUDP assembles the transport from options:
//
//	NewUDP(WithGroups(a, b), WithLocal(0))
//	NewUDP(WithLoopbackGroups(1024, 8), WithReadBuffer(4<<20))
//
// then binds one socket per local group and starts its reader. The
// transport is usable immediately for local traffic; remote groups
// whose Addr was left empty need SetGroupAddr before messages to them
// can leave.
func NewUDP(opts ...UDPOption) (*UDP, error) {
	var set settings
	for _, opt := range opts {
		opt.applyUDP(&set)
	}
	if err := validateLayout(set.groups, set.local); err != nil {
		return nil, err
	}
	u := &UDP{
		groups: set.groups,
		addrs:  make([]atomic.Pointer[net.UDPAddr], len(set.groups)),
		conns:  make([]*net.UDPConn, len(set.groups)),
	}
	for i, g := range set.groups {
		if g.Addr == "" {
			continue
		}
		addr, err := net.ResolveUDPAddr("udp", g.Addr)
		if err != nil {
			return nil, fmt.Errorf("transport: group %d addr %q: %w", i, g.Addr, err)
		}
		u.addrs[i].Store(addr)
	}
	for _, gi := range set.local {
		conn, err := net.ListenUDP("udp", u.addrs[gi].Load())
		if err != nil {
			u.closeConns()
			return nil, fmt.Errorf("transport: bind group %d: %w", gi, err)
		}
		u.conns[gi] = conn
		if set.readBuffer > 0 {
			if err := conn.SetReadBuffer(set.readBuffer); err != nil {
				u.closeConns()
				return nil, fmt.Errorf("transport: SO_RCVBUF group %d: %w", gi, err)
			}
		}
		// Rebind resolved the port (":0" ephemeral); record the real
		// address so Send and GroupAddr see it.
		u.addrs[gi].Store(conn.LocalAddr().(*net.UDPAddr))
	}
	u.in = newInbox(localSpans(set.groups, set.local), set.queueCapacity)
	u.first = u.conns[set.local[0]]
	for _, gi := range set.local {
		u.wg.Add(1)
		go u.reader(u.conns[gi])
	}
	return u, nil
}

// NewUDPLoopback is the single-process convenience constructor: hosts
// [0, hosts) split into `groups` contiguous groups, every group local,
// each bound to an ephemeral loopback port. All cross-host traffic
// then travels through real kernel sockets.
func NewUDPLoopback(hosts, groups, queueCapacity int) (*UDP, error) {
	return NewUDP(WithLoopbackGroups(hosts, groups), WithQueueCapacity(queueCapacity))
}

// GroupAddr returns the group's resolved UDP address ("" if unknown) —
// for a local group, the actual bound socket address, which is what a
// peer process needs to be told.
func (u *UDP) GroupAddr(group int) string {
	if group < 0 || group >= len(u.addrs) {
		return ""
	}
	if addr := u.addrs[group].Load(); addr != nil {
		return addr.String()
	}
	return ""
}

// SetGroupAddr supplies (or replaces) a remote group's address, the
// second half of the two-process handshake: bind locally first, learn
// the peer's ephemeral address, then aim at it.
func (u *UDP) SetGroupAddr(group int, addr string) error {
	if group < 0 || group >= len(u.groups) {
		return fmt.Errorf("transport: group index %d out of range", group)
	}
	a, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("transport: group %d addr %q: %w", group, addr, err)
	}
	u.addrs[group].Store(a)
	return nil
}

// Send implements Transport: wire-encode and fire one datagram from
// the sender's group socket. Every failure mode — unroutable host,
// unknown peer address, unencodable or oversized payload, dead socket
// — is a drop, never an error that stops the protocol: gossip
// tolerates loss by design.
func (u *UDP) Send(from, to gossip.NodeID, tick int, payload any) bool {
	gi := groupOf(u.groups, to)
	if gi < 0 {
		u.in.drop(1)
		return false
	}
	return u.fire(gi, groupOf(u.groups, from), 1, func(dst []byte) ([]byte, error) {
		return appendEnvelope(dst, from, to, tick, payload)
	})
}

// fire encodes one datagram into a pooled buffer and writes it toward
// group gi from group via's socket when via is local (any local socket
// otherwise), charging msgs to Sent or Dropped.
func (u *UDP) fire(gi, via, msgs int, encode func(dst []byte) ([]byte, error)) bool {
	addr := u.addrs[gi].Load()
	if addr == nil || u.closed.Load() {
		u.in.drop(msgs)
		return false
	}
	conn := u.first
	if via >= 0 && u.conns[via] != nil {
		conn = u.conns[via]
	}
	bp := u.in.bufs.Get().(*[]byte)
	buf, err := encode((*bp)[:0])
	if err == nil && len(buf) > maxDatagram {
		err = fmt.Errorf("transport: %d-byte datagram exceeds the %d-byte ceiling", len(buf), maxDatagram)
	}
	if err == nil {
		_, err = conn.WriteToUDP(buf, addr)
	}
	if buf != nil {
		*bp = buf
	}
	u.in.bufs.Put(bp)
	if err != nil {
		u.in.drop(msgs)
		return false
	}
	u.sent.Add(int64(msgs))
	return true
}

// reader pulls datagrams off one group socket and hands them to the
// receive plane. A full queue or an undecodable datagram is a counted
// drop there; the kernel's own buffer overflow upstream of here is the
// silent kind.
func (u *UDP) reader(conn *net.UDPConn) {
	defer u.wg.Done()
	buf := make([]byte, maxDatagram)
	for {
		n, _, err := conn.ReadFromUDP(buf)
		if err != nil {
			if u.closed.Load() || errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		h, rest, err := wire.DecodeHeader(buf[:n])
		if err != nil {
			u.in.drop(1)
			continue
		}
		u.in.deliver(h, rest)
	}
}

// BatchGroups implements Batcher: the socket groups double as batch
// groups.
func (u *UDP) BatchGroups() int { return len(u.groups) }

// BatchGroup implements Batcher.
func (u *UDP) BatchGroup(g int) (lo, hi gossip.NodeID) {
	return u.groups[g].Lo, u.groups[g].Hi
}

// MaxBatchBody implements Batcher: the sendable IPv4 payload (under
// maxDatagram) minus worst-case framing.
func (u *UDP) MaxBatchBody() int {
	return min(maxDatagram, maxUDPPayload) - maxBatchHeader
}

// SendBatch implements Batcher: one datagram carrying a whole shard's
// wave to one destination group — header (kind, the group's Lo,
// message count, tick) plus the opaque record body — written from the
// destination group's own socket when it is local (spreading loopback
// write contention), any local socket otherwise. Failure modes are
// counted drops of all msgs messages, mirroring Send.
func (u *UDP) SendBatch(group, tick, msgs int, body []byte) bool {
	if group < 0 || group >= len(u.groups) || len(body) > u.MaxBatchBody() {
		u.in.drop(msgs)
		return false
	}
	return u.fire(group, group, msgs, func(dst []byte) ([]byte, error) {
		dst = wire.AppendHeader(dst, wire.Header{
			Kind: kindColumnarBatch, To: int32(u.groups[group].Lo), From: int32(msgs), Tick: int32(tick),
		})
		return append(dst, body...), nil
	})
}

// DrainBatch implements Batcher.
func (u *UDP) DrainBatch(group int, fn func(body []byte)) {
	if group >= 0 && group < len(u.groups) {
		u.in.drainBatch(u.groups[group].Lo, fn)
	}
}

// Drain implements Transport.
func (u *UDP) Drain(id gossip.NodeID, fn func(payload any)) { u.in.drain(id, fn) }

// Sent implements Transport: datagrams handed to the kernel. Unlike
// the channel transport, "sent" does not imply the receiver had room —
// the datagram may still die in a socket buffer, or be counted again
// in Dropped when the receive queue sheds it, so Sent+Dropped can
// exceed the number of Send calls. That asymmetry is exactly the
// radio semantics the live engine exists to exercise.
func (u *UDP) Sent() int64 { return u.sent.Load() }

// Dropped implements Transport: encode failures, unroutable
// destinations, and receiver-side losses (undecodable datagrams,
// receive-queue overflow — both counted after the same message was
// counted Sent). Kernel-buffer losses are invisible here by nature.
func (u *UDP) Dropped() int64 { return u.in.dropped.Load() }

// Close implements Transport: closes every socket and waits for the
// readers to exit.
func (u *UDP) Close() error {
	if u.closed.Swap(true) {
		return nil
	}
	err := u.closeConns()
	u.wg.Wait()
	return err
}

func (u *UDP) closeConns() error {
	var first error
	for _, c := range u.conns {
		if c == nil {
			continue
		}
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
