package transport

import (
	"encoding/binary"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dynagg/internal/gossip"
	"dynagg/internal/wire"
)

// Bootstrap control-frame payloads. These ride inside the same
// length-prefixed frames as protocol envelopes (kindAnnounce and
// kindMembership headers), so the TCP reader needs no second parser —
// but they are transport-internal: no protocol ever sees them.
//
// Announce payload:    uvarint lo · uvarint hi · uvarint len · addr
// Membership payload:  status byte (0 ok, 1 reject)
//	ok:     uvarint count · count × (uvarint lo · uvarint hi · uvarint len · addr)
//	reject: uvarint len · reason
//
// Like every decoder fed from a socket, the bounds are explicit:
// addresses cap at maxAddrLen, tables at maxMembershipEntries, reject
// reasons at maxRejectLen. A hostile frame sizes nothing.

const (
	maxAddrLen           = 256
	maxRejectLen         = 512
	maxMembershipEntries = 1 << 16

	membershipOK     = 0
	membershipReject = 1

	// maxAgeMillis caps a freshness age on the wire (~49 days); larger
	// claims decode as unknown. AgeUnknown is the sentinel decoded
	// entries carry when the sender did not (or could not) report one.
	maxAgeMillis = 1<<32 - 2
)

// AgeUnknown marks a membership entry with no freshness information:
// the encoder predates the age section, or the seed has never heard a
// direct announce for the span.
const AgeUnknown = int64(-1)

// appendSpanAddr encodes one (lo, hi, addr) triple.
func appendSpanAddr(dst []byte, lo, hi gossip.NodeID, addr string) []byte {
	dst = binary.AppendUvarint(dst, uint64(uint32(lo)))
	dst = binary.AppendUvarint(dst, uint64(uint32(hi)))
	dst = binary.AppendUvarint(dst, uint64(len(addr)))
	return append(dst, addr...)
}

// decodeSpanAddr decodes one triple, returning the remaining bytes.
func decodeSpanAddr(src []byte) (lo, hi gossip.NodeID, addr string, rest []byte, err error) {
	var v [3]uint64 // lo, hi, address length
	for i, limit := range [3]uint64{1<<31 - 1, 1<<31 - 1, maxAddrLen} {
		var n int
		if v[i], n = binary.Uvarint(src); n <= 0 || v[i] > limit {
			return 0, 0, "", nil, fmt.Errorf("transport: membership %s", [3]string{"span lo", "span hi", "addr length"}[i])
		}
		src = src[n:]
	}
	if uint64(len(src)) < v[2] {
		return 0, 0, "", nil, fmt.Errorf("transport: membership addr truncated")
	}
	return gossip.NodeID(v[0]), gossip.NodeID(v[1]), string(src[:v[2]]), src[v[2]:], nil
}

// appendAnnounce encodes the announce payload. The trailing flag byte
// (0 plain, 1 replace) is an additive extension: decoders that predate
// it ignore trailing bytes, and its absence decodes as plain.
func appendAnnounce(dst []byte, lo, hi gossip.NodeID, addr string, replace bool) []byte {
	dst = appendSpanAddr(dst, lo, hi, addr)
	if replace {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func decodeAnnounce(src []byte) (lo, hi gossip.NodeID, addr string, replace bool, err error) {
	lo, hi, addr, rest, err := decodeSpanAddr(src)
	if err != nil {
		return 0, 0, "", false, err
	}
	return lo, hi, addr, len(rest) > 0 && rest[0] == 1, nil
}

// appendMembership encodes the ok reply: every group whose address is
// known. Groups without an address are omitted — the peer cannot dial
// them anyway, and it will learn them from a later announce.
//
// ages, when non-nil, is parallel to groups and carries each span's
// freshness in milliseconds since its last direct announce at the
// sender (AgeUnknown when the sender has no observation). Ages ride as
// a trailing section — one uvarint per kept entry, encoded as age+1
// (saturating at maxAgeMillis) with 0 meaning unknown — the same additive-extension trick as the
// announce replace flag: decoders that predate the section ignore
// trailing bytes, and its absence decodes as all-unknown.
func appendMembership(dst []byte, groups []Group, ages []int64) []byte {
	dst = append(dst, membershipOK)
	known := 0
	for _, g := range groups {
		if g.Addr != "" {
			known++
		}
	}
	dst = binary.AppendUvarint(dst, uint64(known))
	for _, g := range groups {
		if g.Addr != "" {
			dst = appendSpanAddr(dst, g.Lo, g.Hi, g.Addr)
		}
	}
	if ages == nil {
		return dst
	}
	for i, g := range groups {
		if g.Addr != "" {
			dst = binary.AppendUvarint(dst, uint64(min(max(ages[i], AgeUnknown), maxAgeMillis)+1))
		}
	}
	return dst
}

// appendMembershipReject encodes the rejection reply.
func appendMembershipReject(dst []byte, reason string) []byte {
	if len(reason) > maxRejectLen {
		reason = reason[:maxRejectLen]
	}
	dst = append(dst, membershipReject)
	dst = binary.AppendUvarint(dst, uint64(len(reason)))
	return append(dst, reason...)
}

// decodeMembership parses a reply into its group table (plus per-entry
// freshness ages, AgeUnknown where absent), or the rejection reason
// when the seed refused the announce. Ages are advisory: a missing or
// garbled trailing age section decodes as all-unknown rather than
// failing the table — an old peer, or a hostile one, can at worst
// withhold freshness, never corrupt membership.
func decodeMembership(src []byte) (entries []Group, ages []int64, reject string, err error) {
	if len(src) == 0 {
		return nil, nil, "", fmt.Errorf("transport: empty membership payload")
	}
	status, src := src[0], src[1:]
	switch status {
	case membershipReject:
		rl, n := binary.Uvarint(src)
		if n <= 0 || rl > maxRejectLen || uint64(len(src[n:])) < rl {
			return nil, nil, "", fmt.Errorf("transport: membership reject reason")
		}
		return nil, nil, string(src[n : n+int(rl)]), nil
	case membershipOK:
		count, n := binary.Uvarint(src)
		if n <= 0 || count > maxMembershipEntries {
			return nil, nil, "", fmt.Errorf("transport: membership entry count")
		}
		src = src[n:]
		entries = make([]Group, 0, count)
		for i := uint64(0); i < count; i++ {
			var g Group
			g.Lo, g.Hi, g.Addr, src, err = decodeSpanAddr(src)
			if err != nil {
				return nil, nil, "", err
			}
			entries = append(entries, g)
		}
		return entries, decodeMembershipAges(src, len(entries)), "", nil
	default:
		return nil, nil, "", fmt.Errorf("transport: membership status %d", status)
	}
}

// decodeMembershipAges parses the trailing freshness section: count
// uvarints, each age+1 in milliseconds with 0 meaning unknown. Any
// shortfall or out-of-range claim yields all-unknown.
func decodeMembershipAges(src []byte, count int) []int64 {
	ages := make([]int64, count)
	for i := range ages {
		v, n := binary.Uvarint(src)
		if n <= 0 || v > maxAgeMillis+1 {
			for j := range ages {
				ages[j] = AgeUnknown
			}
			return ages
		}
		src = src[n:]
		ages[i] = int64(v) - 1
	}
	return ages
}

// SpanObserver receives span liveness observations from the membership
// plane: one call per direct announce heard on a listener (age 0) and
// one per relayed membership entry whose seed reported a freshness age
// (elapsed time since the seed last heard that span announce).
// Entries with unknown freshness are not delivered. Observers are
// called from transport reader goroutines and must be fast and safe
// for concurrent use — a health detector's Observe is the intended
// consumer.
type SpanObserver func(lo, hi gossip.NodeID, addr string, age time.Duration)

// membership is the TCP transport's membership layer, the shell around
// the span table (spantable.go): it serializes events into the table,
// turns the effects it returns into streams.open, peer.setAddr and
// peer.sever, runs the announce handshake that feeds it, and reads the
// clock and calls the span observer on its behalf. Its exported
// methods are promoted to *TCP, which embeds it. The one connection it
// makes itself is Announce's round trip to a seed; a seed answers an
// announce through the reply function the stream layer hands its
// frame callback.
type membership struct {
	st *streams
	// view is the current table with its peers; apply swaps in the
	// next one under mu. Hot paths load once per call.
	view atomic.Pointer[groupView]
	mu   sync.Mutex
	// spanObs receives one call per liveness observation (see
	// SetSpanObserver).
	spanObs atomic.Pointer[SpanObserver]
}

// groupView is one immutable snapshot of membership: the span table
// and, parallel to its spans, the stream peer toward each. The table
// is the one record of a span's address; a peer's is its writer's dial
// target, set only from the table's effects.
type groupView struct {
	spanTable
	peers []*streamPeer
}

// apply feeds one event to the table under mu and carries out its
// effect, returning the view it stored (the current one if the event
// was refused).
func (m *membership) apply(ev spanEvent) (*groupView, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v := m.view.Load()
	next, eff, err := v.spanTable.apply(ev)
	if err != nil {
		return v, err
	}
	nv := &groupView{spanTable: next, peers: v.peers}
	switch {
	case eff.insert:
		p := m.st.open(ev.Addr)
		if p == nil {
			return v, fmt.Errorf("transport: closed")
		}
		nv.peers = slices.Insert(slices.Clip(v.peers), eff.at, p)
	case eff.readdress:
		// Sever the cached connection toward the stale address; the
		// writer redials the new one. Not counted in Kills(): that is
		// loss injection.
		v.peers[eff.at].setAddr(ev.Addr)
		v.peers[eff.at].sever()
	}
	m.view.Store(nv)
	return nv, nil
}

// SetSpanObserver installs the liveness observer (nil removes it).
// Install it before announce traffic starts; observations made while
// no observer is set are not replayed.
func (m *membership) SetSpanObserver(fn SpanObserver) { m.spanObs.Store(&fn) }

// observeSpan feeds one liveness observation to the installed
// observer, if any.
func (m *membership) observeSpan(lo, hi gossip.NodeID, addr string, age time.Duration) {
	if fp := m.spanObs.Load(); fp != nil && *fp != nil {
		(*fp)(lo, hi, addr, age)
	}
}

// Groups returns a snapshot of the membership table with current
// addresses.
func (m *membership) Groups() []Group { return m.view.Load().groups() }

// GroupAddr returns the group's address ("" if unknown) — for a local
// group, the actual bound listener address, which is what a peer
// process needs to be told.
func (m *membership) GroupAddr(group int) string {
	if v := m.view.Load(); group >= 0 && group < len(v.spans) {
		return v.spans[group].Addr
	}
	return ""
}

// SetGroupAddr supplies (or replaces) a remote group's address by
// index. A local group's address is its listener's and is not
// replaced: that is ErrSpanConflict.
func (m *membership) SetGroupAddr(group int, addr string) error {
	v := m.view.Load()
	if group < 0 || group >= len(v.spans) {
		return fmt.Errorf("transport: group index %d out of range", group)
	}
	if _, err := net.ResolveTCPAddr("tcp", addr); err != nil {
		return fmt.Errorf("transport: group %d addr %q: %w", group, addr, err)
	}
	g := v.spans[group]
	return m.registerGroup(g.Lo, g.Hi, addr, true)
}

// Covers reports whether the known groups tile [0, total) with every
// address known; observer spans at or above total are not waited for.
func (m *membership) Covers(total int) bool { return m.view.Load().covers(total) }

// RegisterGroup adds (or confirms) one peer group's span and address.
// Re-registering an identical span is idempotent; the same span at a
// different address, or any overlap with an existing group, is
// ErrSpanConflict. Must complete before a Population binds: inserting
// a group shifts batch group indices.
func (m *membership) RegisterGroup(lo, hi gossip.NodeID, addr string) error {
	return m.registerGroup(lo, hi, addr, false)
}

// registerGroup is RegisterGroup, and with replace an exact span match
// at a new address takes the address instead of conflicting: how a
// process that came back on a new port (an observer gateway,
// typically) reclaims its span.
func (m *membership) registerGroup(lo, hi gossip.NodeID, addr string, replace bool) error {
	_, err := m.apply(spanEvent{Group: Group{Lo: lo, Hi: hi, Addr: addr}, replace: replace})
	return err
}

// Announce performs one bootstrap round-trip against a seed: dial,
// announce our span and listen address, read the membership reply,
// merge every entry it lists. A rejection surfaces as ErrSpanConflict
// (fatal: someone else owns our span); dial or read failures are plain
// errors the caller retries — the seed may simply not be up yet.
func (m *membership) Announce(seedAddr string, lo, hi gossip.NodeID, selfAddr string) error {
	return m.announce(seedAddr, lo, hi, selfAddr, false)
}

// AnnounceReplace is Announce with restart semantics: the seed treats
// an exact span match at a new address as this process reclaiming its
// span (see registerGroup) rather than as ErrSpanConflict, and pushes
// the updated table to the rest of the membership.
func (m *membership) AnnounceReplace(seedAddr string, lo, hi gossip.NodeID, selfAddr string) error {
	return m.announce(seedAddr, lo, hi, selfAddr, true)
}

func (m *membership) announce(seedAddr string, lo, hi gossip.NodeID, selfAddr string, replace bool) error {
	c, err := net.DialTimeout("tcp", seedAddr, DefaultDialTimeout)
	if err != nil {
		return err
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(DefaultDialTimeout + 2*time.Second))
	payload := wire.AppendHeader(nil, wire.Header{Kind: kindAnnounce})
	payload = appendAnnounce(payload, lo, hi, selfAddr, replace)
	if _, err := c.Write(wire.AppendFrame(nil, payload)); err != nil {
		return err
	}
	scan := frameScanner{max: DefaultMaxFrame}
	for {
		n, rerr := c.Read(scan.room())
		scan.filled(n)
		frame, err := scan.next()
		switch {
		case err != nil:
			return err
		case frame != nil:
			return m.mergeReply(frame)
		case rerr != nil:
			return rerr
		}
	}
}

// mergeReply merges the seed's answer to our announce.
func (m *membership) mergeReply(frame []byte) error {
	h, rest, err := wire.DecodeHeader(frame)
	if err != nil {
		return err
	}
	if h.Kind != kindMembership {
		return fmt.Errorf("transport: announce reply has kind %d, want membership", h.Kind)
	}
	return m.mergeMembership(rest)
}

// mergeMembership registers a seed-authored membership payload and
// relays each entry's freshness to the span observer; a rejection
// payload is ErrSpanConflict. Addresses replace (the seed already
// vetted the change); unknown ages are not observed — they say nothing
// about liveness.
func (m *membership) mergeMembership(payload []byte) error {
	entries, ages, reject, err := decodeMembership(payload)
	if err != nil {
		return err
	}
	if reject != "" {
		return fmt.Errorf("%w: seed rejected announce: %s", ErrSpanConflict, reject)
	}
	var first error
	for i, e := range entries {
		if _, err := m.apply(spanEvent{Group: e, replace: true}); err != nil && first == nil {
			first = err
		}
		if ages[i] >= 0 {
			m.observeSpan(e.Lo, e.Hi, e.Addr, time.Duration(ages[i])*time.Millisecond)
		}
	}
	return first
}

// handleAnnounce is the seed side of the bootstrap handshake: register
// the announced span, answer through reply with either the membership
// table or the rejection, and push an accepted table to the other
// members. False means the payload was undecodable.
func (m *membership) handleAnnounce(payload []byte, reply func(frame []byte)) bool {
	lo, hi, addr, replace, err := decodeAnnounce(payload)
	if err != nil {
		return false
	}
	frame := wire.AppendHeader(nil, wire.Header{Kind: kindMembership})
	// A direct announce, keepalives included, is a heartbeat: the table
	// records when it was heard and the observer is fed.
	now := time.Now()
	v, err := m.apply(spanEvent{Group: Group{Lo: lo, Hi: hi, Addr: addr}, replace: replace, heard: now})
	if err != nil {
		reply(appendMembershipReject(frame, err.Error()))
		return true
	}
	m.observeSpan(lo, hi, addr, 0)
	frame = appendMembership(frame, v.spans, v.ages(now))
	reply(frame)
	m.pushMembership(v, frame)
	return true
}

// pushMembership sends a membership frame to every remote peer of v
// with a known address, over the regular outboxes (msgs=0, so
// Sent/Dropped stay protocol-only). The announce reply reaches only
// the process that dialed in; without the push, members registered
// earlier would learn later spans only at their re-announce cadence —
// or never, if the seed exits between a slow member's retries.
func (m *membership) pushMembership(v *groupView, frame []byte) {
	for i, p := range v.peers {
		if v.state[i].local || v.spans[i].Addr == "" {
			continue
		}
		bp, buf := m.st.newFrame()
		p.send(bp, append(buf, frame...), 0)
	}
}
