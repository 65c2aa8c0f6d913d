// Option-style construction: the socket transports and the loss
// injector are assembled from options only, so call sites read as a
// configuration sentence:
//
//	tr, err := transport.NewUDP(
//		transport.WithLoopbackGroups(1_000_000, 8),
//		transport.WithReadBuffer(4<<20))
//	lt, err := transport.NewLossy(tr, transport.WithLoss(0.2), transport.WithLossSeed(12))
//
// The knobs both socket transports share — group layout, locality,
// queue capacity — are Options, accepted by NewUDP and NewTCP alike;
// medium-specific knobs (SO_RCVBUF, stream framing and reconnect
// pacing) stay UDPOption or TCPOption, so the compiler rejects a
// datagram knob on a stream transport. The Lossy struct
// fields stay exported: a literal is still the shortest way to wrap a
// transport in a test.
package transport

import (
	"fmt"
	"time"
)

// settings is what the options assemble: the shared layout and queue
// knobs plus each medium's own. Zero fields mean the documented
// defaults.
type settings struct {
	groups        []Group
	local         []int
	queueCapacity int

	readBuffer int // UDP

	dialTimeout time.Duration // TCP
	backoffMin  time.Duration
	backoffMax  time.Duration
}

// UDPOption configures NewUDP. Options apply in argument order; later
// options override earlier ones.
type UDPOption interface{ applyUDP(*settings) }

// TCPOption configures NewTCP, with the same ordering rule.
type TCPOption interface{ applyTCP(*settings) }

// Option is a knob both socket transports understand — group layout,
// locality, queue capacity — so one option list can assemble either
// medium.
type Option interface {
	UDPOption
	TCPOption
}

// sharedOption, udpOption and tcpOption adapt a setter to the option
// interface(s) of the media it applies to.
type (
	sharedOption func(*settings)
	udpOption    func(*settings)
	tcpOption    func(*settings)
)

func (f sharedOption) applyUDP(s *settings) { f(s) }
func (f sharedOption) applyTCP(s *settings) { f(s) }
func (f udpOption) applyUDP(s *settings)    { f(s) }
func (f tcpOption) applyTCP(s *settings)    { f(s) }

// WithGroups sets the population partition (non-empty, non-overlapping,
// sorted by Lo), replacing any earlier layout.
func WithGroups(groups ...Group) Option {
	return sharedOption(func(s *settings) { s.groups = groups })
}

// WithLocal lists the group indices this process binds sockets for.
// Only local hosts can send and receive here.
func WithLocal(local ...int) Option {
	return sharedOption(func(s *settings) { s.local = local })
}

// WithLoopbackGroups lays hosts [0, hosts) out as `groups` contiguous
// local groups on ephemeral loopback ports — the single-process layout
// NewUDPLoopback and NewTCPLoopback build.
func WithLoopbackGroups(hosts, groups int) Option {
	return sharedOption(func(s *settings) {
		s.groups = contiguousGroups(hosts, groups, "127.0.0.1:0")
		s.local = make([]int, len(s.groups))
		for i := range s.local {
			s.local[i] = i
		}
	})
}

// WithQueueCapacity bounds each local host's (and group's) receive
// queue — the post-kernel stage of the radio, overflow dropped and
// counted — and, for the TCP transport, each peer group's send queue;
// 0 keeps DefaultQueue.
func WithQueueCapacity(n int) Option {
	return sharedOption(func(s *settings) { s.queueCapacity = n })
}

// WithReadBuffer sets SO_RCVBUF on each local socket. Million-host
// columnar runs want several MiB here: a whole shard's wave lands on
// one socket between drains. Shrinking it makes the kernel stage of
// the radio saturate earlier; those losses are silent (the kernel
// drops before the transport sees anything), which is the point.
func WithReadBuffer(n int) UDPOption {
	return udpOption(func(s *settings) { s.readBuffer = n })
}

// WithDialTimeout bounds each connection attempt (and the announce
// round-trip of the bootstrap protocol); 0 keeps DefaultDialTimeout.
func WithDialTimeout(d time.Duration) TCPOption {
	return tcpOption(func(s *settings) { s.dialTimeout = d })
}

// WithReconnectBackoff sets the exponential redial pacing after a
// broken connection: the first retry waits min, doubling up to max.
// Zeros keep DefaultBackoffMin / DefaultBackoffMax.
func WithReconnectBackoff(min, max time.Duration) TCPOption {
	return tcpOption(func(s *settings) {
		s.backoffMin = min
		s.backoffMax = max
	})
}

// LossyOption configures NewLossy.
type LossyOption func(*Lossy)

// WithLoss sets the per-send drop probability in [0, 1].
func WithLoss(p float64) LossyOption { return func(l *Lossy) { l.P = p } }

// WithLossSeed seeds the injector's private PRNG.
func WithLossSeed(seed uint64) LossyOption { return func(l *Lossy) { l.Seed = seed } }

// WithDelay postpones each surviving delivery by delay plus a uniform
// random extra in [0, jitter).
func WithDelay(delay, jitter time.Duration) LossyOption {
	return func(l *Lossy) {
		l.Delay = delay
		l.Jitter = jitter
	}
}

// WithProfile applies a canned WAN preset — ProfileLAN, Profile3G,
// ProfileSat, or anything ProfileByName resolves — setting loss,
// delay, and jitter in one option.
func WithProfile(p Profile) LossyOption {
	return func(l *Lossy) {
		l.P = p.Loss
		l.Delay = p.Delay
		l.Jitter = p.Jitter
	}
}

// NewLossy layers a validated loss/delay injector over inner. With no
// options it forwards everything — loss comes from WithLoss or
// WithProfile.
func NewLossy(inner Transport, opts ...LossyOption) (*Lossy, error) {
	if inner == nil {
		return nil, fmt.Errorf("transport: NewLossy inner transport is nil")
	}
	l := &Lossy{T: inner}
	for _, opt := range opts {
		opt(l)
	}
	if err := l.Validate(); err != nil {
		return nil, err
	}
	return l, nil
}
