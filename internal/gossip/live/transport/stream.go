package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dynagg/internal/backoff"
	"dynagg/internal/wire"
)

const (
	// tcpWriteDeadline bounds one coalesced write burst. A peer that
	// stops reading stalls only its own writer goroutine, and only this
	// long — then the connection dies and its traffic becomes drops,
	// which is what a jammed link is.
	tcpWriteDeadline = 5 * time.Second

	// frameSlack is the room newFrame reserves ahead of the payload for
	// the frame's uvarint length, written backwards once the payload
	// size is known — one encode pass, no copy.
	frameSlack = binary.MaxVarintLen32
)

// streams is the TCP transport's stream layer. It moves opaque
// length-prefixed frames (see internal/wire frame.go) between listen
// addresses and knows nothing about what a frame carries or which
// hosts live where. Outbound, each peer address gets a bounded outbox
// and a writer goroutine that dials lazily, redials with backoff, and
// coalesces queued frames into one flushed burst; inbound, every
// accepted connection gets a reader that reassembles frames and hands
// each to onFrame together with a function that writes a frame back
// down the same connection. A broken connection is not an error, it is
// the medium: frames sent into the outage window drop, counted.
type streams struct {
	redial    backoff.Policy
	outboxCap int
	// bufs pools frame buffers; the owner lends its pool so a buffer
	// freed by a writer can serve the receive side and vice versa.
	bufs    *sync.Pool
	onFrame func(frame []byte, reply func(frame []byte))

	// mu guards the registries of everything close must sever.
	mu        sync.Mutex
	listeners []net.Listener
	peers     []*streamPeer
	accepted  map[net.Conn]struct{}

	// sent counts messages handed to the kernel; dropped those lost to
	// a full outbox, a dead or unredialable connection, an oversize
	// frame or an unframeable inbound stream; overflow is the
	// full-outbox share of dropped. kills counts connections severed
	// by kill; reconnects counts successful redials after a connection
	// died (the first dial toward a peer is not one).
	sent       atomic.Int64
	dropped    atomic.Int64
	overflow   atomic.Int64
	kills      atomic.Int64
	reconnects atomic.Int64
	closed     atomic.Bool
	done       chan struct{}
	wg         sync.WaitGroup
}

// streamPeer is the send side toward one address: the (mutable)
// address, the outbox, and the cached connection its writer owns.
type streamPeer struct {
	s      *streams
	addr   atomic.Pointer[string]
	outbox chan outFrame
	// conn mirrors the writer's current connection so sever and close
	// can cut it from outside; only the writer replaces it.
	conn atomic.Pointer[net.Conn]
}

// outFrame is one queued frame: a pooled buffer whose bytes from off
// onward are the complete length-prefixed frame, plus the message
// count it carries (for drop accounting).
type outFrame struct {
	buf  *[]byte
	off  int
	msgs int
}

func newStreams(redial backoff.Policy, outboxCap int,
	bufs *sync.Pool, onFrame func(frame []byte, reply func(frame []byte))) *streams {
	return &streams{
		redial: redial, outboxCap: outboxCap,
		bufs: bufs, onFrame: onFrame,
		accepted: make(map[net.Conn]struct{}),
		done:     make(chan struct{}),
	}
}

// listen binds one listener and returns its resolved address (":0"
// picks an ephemeral port). Nothing is accepted until serve.
func (s *streams) listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.listeners = append(s.listeners, ln)
	return ln.Addr().String(), nil
}

// serve starts one acceptor per bound listener.
func (s *streams) serve() {
	for _, ln := range s.listeners {
		s.wg.Add(1)
		go s.acceptLoop(ln)
	}
}

// open starts a writer toward addr ("" until setAddr supplies one:
// frames queued for an unknown address drop, like transmissions to a
// host out of range). It returns nil once the layer is closed.
func (s *streams) open(addr string) *streamPeer {
	p := &streamPeer{s: s, outbox: make(chan outFrame, s.outboxCap)}
	p.setAddr(addr)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return nil
	}
	s.peers = append(s.peers, p)
	s.wg.Add(1)
	go p.run()
	return p
}

// setAddr re-aims the peer; the writer dials the new address the next
// time it has no connection (sever forces that).
func (p *streamPeer) setAddr(addr string) { p.addr.Store(&addr) }

// newFrame returns a pooled buffer with frameSlack bytes reserved; the
// caller appends the frame's payload to buf and hands both to send (or
// returns bp to the pool).
func (s *streams) newFrame() (bp *[]byte, buf []byte) {
	bp = s.bufs.Get().(*[]byte)
	var slack [frameSlack]byte
	return bp, append((*bp)[:0], slack[:]...)
}

// send seals the frame built in buf (see newFrame) and queues it on
// the peer's outbox without blocking. Acceptance means the frame is in
// flight toward the writer — its msgs are counted sent only once
// handed to the kernel, and dropped if the outbox is full, the frame
// exceeds DefaultMaxFrame, the connection is down and unredialable, or the
// write fails.
func (p *streamPeer) send(bp *[]byte, buf []byte, msgs int) bool {
	s := p.s
	*bp = buf
	if len(buf)-frameSlack > DefaultMaxFrame {
		s.bufs.Put(bp)
		s.dropped.Add(int64(msgs))
		return false
	}
	// The length goes in backwards, flush against the payload.
	var tmp [frameSlack]byte
	n := binary.PutUvarint(tmp[:], uint64(len(buf)-frameSlack))
	copy(buf[frameSlack-n:frameSlack], tmp[:n])
	select {
	case p.outbox <- outFrame{buf: bp, off: frameSlack - n, msgs: msgs}:
		return true
	default:
		s.bufs.Put(bp)
		s.dropped.Add(int64(msgs))
		s.overflow.Add(int64(msgs))
		return false
	}
}

// sever cuts the peer's cached connection, reporting whether a live
// one was cut. The writer notices the severed mirror, drops what was
// in flight, and redials on the next burst.
func (p *streamPeer) sever() bool {
	if cp := p.conn.Swap(nil); cp != nil {
		(*cp).Close()
		return true
	}
	return false
}

// kill is sever as failure injection: a cut is counted in kills.
func (p *streamPeer) kill() bool {
	if p.sever() {
		p.s.kills.Add(1)
		return true
	}
	return false
}

// dial attempts one connection toward the peer's current address.
func (p *streamPeer) dial() net.Conn {
	addr := *p.addr.Load()
	if addr == "" {
		return nil
	}
	c, err := net.DialTimeout("tcp", addr, DefaultDialTimeout)
	if err != nil {
		return nil
	}
	return c
}

// run is the peer's writer goroutine: it owns the cached connection,
// dials lazily with exponential backoff (the shared internal/backoff
// policy, with a little jitter so peers of a restarted process do not
// redial in lockstep), and coalesces every queued frame into one
// buffered write burst flushed when the outbox runs dry. A write
// failure drops the frame, kills the connection, and leaves redialing
// to the next burst.
func (p *streamPeer) run() {
	s := p.s
	defer s.wg.Done()
	var conn net.Conn
	var bw *bufio.Writer
	redial := backoff.New(s.redial)
	var nextDial time.Time
	hadConn := false
	closeConn := func() {
		if conn != nil {
			conn.Close()
			p.conn.Store(nil)
			conn, bw = nil, nil
		}
	}
	defer closeConn()
	drop := func(it outFrame) {
		s.dropped.Add(int64(it.msgs))
		s.bufs.Put(it.buf)
	}
	for {
		var it outFrame
		select {
		case <-s.done:
			for {
				select {
				case it := <-p.outbox:
					drop(it)
				default:
					return
				}
			}
		case it = <-p.outbox:
		}
		wrote := false
		for {
			// sever cuts the connection out from under us; the mirror
			// going nil is the signal to stop trusting ours.
			if conn != nil && p.conn.Load() == nil {
				closeConn()
			}
			if conn == nil && !s.closed.Load() && !time.Now().Before(nextDial) {
				if c := p.dial(); c != nil {
					conn, bw = c, bufio.NewWriterSize(c, 32<<10)
					cc := c
					p.conn.Store(&cc)
					conn.SetWriteDeadline(time.Now().Add(tcpWriteDeadline))
					redial.Reset()
					if hadConn {
						s.reconnects.Add(1)
					}
					hadConn = true
				} else {
					nextDial = time.Now().Add(redial.Next())
				}
			}
			if conn == nil {
				drop(it)
			} else if _, err := bw.Write((*it.buf)[it.off:]); err != nil {
				drop(it)
				closeConn()
			} else {
				s.sent.Add(int64(it.msgs))
				s.bufs.Put(it.buf)
				wrote = true
			}
			select {
			case it = <-p.outbox:
				continue
			default:
			}
			break
		}
		if conn != nil && wrote {
			conn.SetWriteDeadline(time.Now().Add(tcpWriteDeadline))
			if err := bw.Flush(); err != nil {
				// Frames buffered since the last good flush die with
				// the connection after being counted sent — the same
				// sent-then-lost asymmetry UDP's kernel buffers have.
				closeConn()
			}
		}
	}
}

// readChunk is the spare capacity a frameScanner starts with — one
// socket read's worth.
const readChunk = 32 << 10

// frameScanner accumulates socket bytes and splits them into frames
// via wire.DecodeFrame. The socket is read straight into its buffer's
// spare capacity (room, then filled), so a received byte is copied
// only if it belongs to a frame still incomplete when the frames ahead
// of it are consumed. The buffer starts at readChunk and grows only
// when an unfinished frame leaves less than half a chunk free, so it
// stays proportional to the largest frame seen plus one read.
type frameScanner struct {
	max int
	buf []byte
	pos int
}

// room discards the consumed prefix and returns the spare capacity for
// the next socket read; filled must report how much of it was written
// before the next call to next.
func (s *frameScanner) room() []byte {
	n := len(s.buf)
	if s.pos > 0 {
		n = copy(s.buf, s.buf[s.pos:])
		s.buf, s.pos = s.buf[:n], 0
	}
	if cap(s.buf)-n < readChunk/2 {
		s.buf = append(make([]byte, 0, n+readChunk), s.buf...)
	}
	return s.buf[n:cap(s.buf)]
}

// filled extends the buffer over the first n bytes of the slice room
// returned.
func (s *frameScanner) filled(n int) { s.buf = s.buf[:len(s.buf)+n] }

// next returns the next complete frame (aliasing the internal buffer,
// valid until the next room), nil when more bytes are needed, or an
// error when the stream is corrupt beyond resynchronization.
func (s *frameScanner) next() ([]byte, error) {
	frame, rest, err := wire.DecodeFrame(s.buf[s.pos:], s.max)
	if errors.Is(err, wire.ErrShortFrame) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	s.pos = len(s.buf) - len(rest)
	return frame, nil
}

// acceptLoop owns one listener.
func (s *streams) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			c.Close()
			return
		}
		s.accepted[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.readConn(c)
	}
}

// readConn pulls frames off one accepted connection and hands them to
// onFrame. Corruption — an undecodable payload is the owner's business,
// but an unframeable *stream* is not — has no resynchronization point,
// so it drops the connection; the peer's writer will redial and start
// a clean stream.
func (s *streams) readConn(c net.Conn) {
	defer s.wg.Done()
	defer func() {
		c.Close()
		s.mu.Lock()
		delete(s.accepted, c)
		s.mu.Unlock()
	}()
	reply := func(frame []byte) {
		c.SetWriteDeadline(time.Now().Add(tcpWriteDeadline))
		c.Write(wire.AppendFrame(nil, frame))
	}
	scan := frameScanner{max: DefaultMaxFrame}
	for {
		n, err := c.Read(scan.room())
		if n > 0 {
			scan.filled(n)
			for {
				frame, ferr := scan.next()
				if ferr != nil {
					s.dropped.Add(1)
					return
				}
				if frame == nil {
					break
				}
				s.onFrame(frame, reply)
			}
		}
		if err != nil {
			return
		}
	}
}

// close stops accepting, severs every connection, and waits for the
// writers, readers, and acceptors to exit.
func (s *streams) close() error {
	if s.closed.Swap(true) {
		return nil
	}
	close(s.done)
	s.mu.Lock()
	var first error
	for _, ln := range s.listeners {
		if err := ln.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, p := range s.peers {
		p.sever()
	}
	for c := range s.accepted {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return first
}
