// Option-style construction: the socket transports are assembled from
// options only, so call sites read as a configuration sentence:
//
//	tr, err := transport.NewUDP(
//		transport.WithLoopbackGroups(1_000_000, 8),
//		transport.WithReadBuffer(4<<20))
//
// The knobs both socket transports share — group layout, locality,
// queue capacity — are Options, accepted by NewUDP and NewTCP alike;
// medium-specific knobs (SO_RCVBUF, stream framing and reconnect
// pacing) stay UDPOption or TCPOption, so the compiler rejects a
// datagram knob on a stream transport. The loss injector has no
// options: it is a Lossy literal, checked by its Validate.
package transport

import "time"

// settings is what the options assemble: the shared layout and queue
// knobs plus each medium's own. Zero fields mean the documented
// defaults.
type settings struct {
	groups        []Group
	local         []int
	queueCapacity int

	readBuffer int // UDP

	backoffMin time.Duration // TCP
	backoffMax time.Duration
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

// WithReconnectBackoff sets the exponential redial pacing after a
// broken connection: the first retry waits min, doubling up to max.
// Zeros keep DefaultBackoffMin / DefaultBackoffMax.
func WithReconnectBackoff(min, max time.Duration) TCPOption {
	return tcpOption(func(s *settings) {
		s.backoffMin = min
		s.backoffMax = max
	})
}
