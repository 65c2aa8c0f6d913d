package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sort"
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
	l, n := binary.Uvarint(src)
	if n <= 0 || l > 1<<31-1 {
		return 0, 0, "", nil, fmt.Errorf("transport: membership span lo")
	}
	src = src[n:]
	h, n := binary.Uvarint(src)
	if n <= 0 || h > 1<<31-1 {
		return 0, 0, "", nil, fmt.Errorf("transport: membership span hi")
	}
	src = src[n:]
	al, n := binary.Uvarint(src)
	if n <= 0 || al > maxAddrLen {
		return 0, 0, "", nil, fmt.Errorf("transport: membership addr length")
	}
	src = src[n:]
	if uint64(len(src)) < al {
		return 0, 0, "", nil, fmt.Errorf("transport: membership addr truncated")
	}
	return gossip.NodeID(l), gossip.NodeID(h), string(src[:al]), src[al:], nil
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
// with 0 meaning unknown — the same additive-extension trick as the
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
		if g.Addr == "" {
			continue
		}
		age := AgeUnknown
		if i < len(ages) {
			age = ages[i]
		}
		switch {
		case age < 0:
			dst = binary.AppendUvarint(dst, 0)
		case age > maxAgeMillis:
			dst = binary.AppendUvarint(dst, maxAgeMillis+1)
		default:
			dst = binary.AppendUvarint(dst, uint64(age)+1)
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
		ages[i] = AgeUnknown
	}
	for i := 0; i < count; i++ {
		v, n := binary.Uvarint(src)
		if n <= 0 || v > maxAgeMillis+1 {
			for j := range ages {
				ages[j] = AgeUnknown
			}
			return ages
		}
		src = src[n:]
		if v > 0 {
			ages[i] = int64(v - 1)
		}
	}
	return ages
}

// ErrSpanConflict reports a membership registration that contradicts
// the table: the same span at a different address, or a range
// overlapping an existing group. Bootstrap treats it as fatal — two
// processes claiming one host range is a deployment bug, not a
// transient.
var ErrSpanConflict = errors.New("transport: span conflict")

// SpanObserver receives span liveness observations from the membership
// plane: one call per direct announce heard on a listener (age 0) and
// one per relayed membership entry whose seed reported a freshness age
// (elapsed time since the seed last heard that span announce).
// Entries with unknown freshness are not delivered. Observers are
// called from transport reader goroutines and must be fast and safe
// for concurrent use — a health detector's Observe is the intended
// consumer.
type SpanObserver func(lo, hi gossip.NodeID, addr string, age time.Duration)

// membership is the TCP transport's membership layer: the mutable
// group table (who owns which host span, at which address), the
// announce handshake that fills it, and the freshness bookkeeping
// failure detectors ride. Its exported methods are promoted to *TCP,
// which embeds it.
//
// It sees the stream layer through a peer handle per group and three
// calls: peer.send queues a frame toward a group, peer.sever cuts a
// stale connection, and handleAnnounce answers through the reply
// function the stream layer hands its frame callback. (Opening a peer
// for a new group and re-aiming one at a new address are the handle's
// own lifecycle.) The one connection it makes itself is Announce's
// one-shot round trip to a seed.
type membership struct {
	st *streams
	// locals holds the Lo of every span this process listens for,
	// frozen after construction.
	locals map[gossip.NodeID]bool

	// view is the immutable snapshot of the table; registerGroup swaps
	// in a rebuilt copy under mu. Hot paths load once per call.
	view atomic.Pointer[groupView]
	mu   sync.Mutex

	// announceAt records the last direct announce heard per span
	// (keyed by Lo, value unix nanos) — the freshness a seed reports in
	// the membership age section so non-seeds can run failure detectors
	// on relayed knowledge.
	announceAt sync.Map

	// spanObs, when set, receives one call per liveness observation
	// (direct announces and relayed membership ages). See
	// SetSpanObserver.
	spanObs atomic.Pointer[SpanObserver]
}

// groupView is one immutable snapshot of the membership table: groups
// sorted by Lo (their Addr as first registered — peers hold the
// current one), peers parallel to them.
type groupView struct {
	groups []Group
	peers  []*streamPeer
}

// SetSpanObserver installs the liveness observer (nil removes it).
// Install it before announce traffic starts; observations made while
// no observer is set are not replayed.
func (m *membership) SetSpanObserver(fn SpanObserver) {
	if fn == nil {
		m.spanObs.Store(nil)
		return
	}
	m.spanObs.Store(&fn)
}

// observeSpan feeds one liveness observation to the installed
// observer, if any.
func (m *membership) observeSpan(lo, hi gossip.NodeID, addr string, age time.Duration) {
	if fp := m.spanObs.Load(); fp != nil {
		(*fp)(lo, hi, addr, age)
	}
}

// ages returns, parallel to groups, each span's freshness in
// milliseconds: 0 for this process's own listening spans (we are
// always current about ourselves), elapsed-since-last-announce for
// spans that have announced directly to us, AgeUnknown otherwise.
func (m *membership) ages(groups []Group) []int64 {
	now := time.Now()
	ages := make([]int64, len(groups))
	for i, g := range groups {
		ages[i] = AgeUnknown
		if m.locals[g.Lo] {
			ages[i] = 0
			continue
		}
		if v, ok := m.announceAt.Load(g.Lo); ok {
			if ms := now.Sub(time.Unix(0, v.(int64))).Milliseconds(); ms >= 0 {
				ages[i] = ms
			} else {
				ages[i] = 0
			}
		}
	}
	return ages
}

// Groups returns a snapshot of the membership table with current
// addresses.
func (m *membership) Groups() []Group {
	v := m.view.Load()
	out := make([]Group, len(v.groups))
	for i, g := range v.groups {
		g.Addr = v.peers[i].address()
		out[i] = g
	}
	return out
}

// GroupAddr returns the group's address ("" if unknown) — for a local
// group, the actual bound listener address, which is what a peer
// process needs to be told.
func (m *membership) GroupAddr(group int) string {
	v := m.view.Load()
	if group < 0 || group >= len(v.peers) {
		return ""
	}
	return v.peers[group].address()
}

// SetGroupAddr supplies (or replaces) a group's address by index.
func (m *membership) SetGroupAddr(group int, addr string) error {
	v := m.view.Load()
	if group < 0 || group >= len(v.peers) {
		return fmt.Errorf("transport: group index %d out of range", group)
	}
	if _, err := net.ResolveTCPAddr("tcp", addr); err != nil {
		return fmt.Errorf("transport: group %d addr %q: %w", group, addr, err)
	}
	v.peers[group].setAddr(addr)
	return nil
}

// Covers reports whether the known groups tile [0, total) with every
// address resolved — the bootstrap completion condition. Groups at or
// above total (observer spans) neither help nor hurt: an observer
// joining mid-bootstrap must not flip anyone's coverage back to false.
func (m *membership) Covers(total int) bool {
	v := m.view.Load()
	at := gossip.NodeID(0)
	for i, g := range v.groups {
		if int(at) >= total {
			break
		}
		if g.Lo != at || v.peers[i].address() == "" {
			return false
		}
		at = g.Hi
	}
	return int(at) >= total
}

// RegisterGroup adds (or confirms) one peer group's span and address.
// Re-registering an identical span is idempotent; the same span at a
// different address, or any overlap with an existing group, is
// ErrSpanConflict. Must complete before a Population binds: inserting
// a group shifts batch group indices.
func (m *membership) RegisterGroup(lo, hi gossip.NodeID, addr string) error {
	return m.registerGroup(lo, hi, addr, false)
}

// ReplaceGroup is RegisterGroup with restart semantics: an exact span
// match at a different address updates the stored address and severs
// the stale cached connection, instead of reporting ErrSpanConflict.
// Overlapping (non-identical) spans still conflict. This is how a
// process that crashed and came back on a new ephemeral port — an
// observer gateway, typically — reclaims its span.
func (m *membership) ReplaceGroup(lo, hi gossip.NodeID, addr string) error {
	return m.registerGroup(lo, hi, addr, true)
}

func (m *membership) registerGroup(lo, hi gossip.NodeID, addr string, replace bool) error {
	if lo < 0 || hi <= lo {
		return fmt.Errorf("transport: span [%d,%d) is empty", lo, hi)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	v := m.view.Load()
	for i, g := range v.groups {
		if lo >= g.Hi || g.Lo >= hi {
			continue
		}
		if lo != g.Lo || hi != g.Hi {
			return fmt.Errorf("%w: span [%d,%d) overlaps registered [%d,%d)",
				ErrSpanConflict, lo, hi, g.Lo, g.Hi)
		}
		p := v.peers[i]
		switch cur := p.address(); {
		case addr == "" || addr == cur:
		case cur == "":
			p.setAddr(addr)
		case !replace:
			return fmt.Errorf("%w: span [%d,%d) already registered at %s, announced from %s",
				ErrSpanConflict, lo, hi, cur, addr)
		case m.locals[g.Lo]:
			// Nobody replaces this process's own listening span out
			// from under it.
			return fmt.Errorf("%w: span [%d,%d) is local, refused replacement from %s",
				ErrSpanConflict, lo, hi, addr)
		default:
			// Sever the cached connection toward the stale address; the
			// writer redials the new one. Not counted in Kills(): that
			// is loss injection.
			p.setAddr(addr)
			p.sever()
		}
		return nil
	}
	p := m.st.open(addr)
	if p == nil {
		return fmt.Errorf("transport: closed")
	}
	i := sort.Search(len(v.groups), func(i int) bool { return v.groups[i].Lo >= lo })
	nv := &groupView{
		groups: make([]Group, 0, len(v.groups)+1),
		peers:  make([]*streamPeer, 0, len(v.peers)+1),
	}
	nv.groups = append(append(append(nv.groups, v.groups[:i]...), Group{Lo: lo, Hi: hi, Addr: addr}), v.groups[i:]...)
	nv.peers = append(append(append(nv.peers, v.peers[:i]...), p), v.peers[i:]...)
	m.view.Store(nv)
	return nil
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
// span (see ReplaceGroup) rather than as ErrSpanConflict, and pushes
// the updated table to the rest of the membership.
func (m *membership) AnnounceReplace(seedAddr string, lo, hi gossip.NodeID, selfAddr string) error {
	return m.announce(seedAddr, lo, hi, selfAddr, true)
}

func (m *membership) announce(seedAddr string, lo, hi gossip.NodeID, selfAddr string, replace bool) error {
	c, err := net.DialTimeout("tcp", seedAddr, m.st.dialTimeout)
	if err != nil {
		return err
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(m.st.dialTimeout + 2*time.Second))
	payload := wire.AppendHeader(nil, wire.Header{Kind: kindAnnounce})
	payload = appendAnnounce(payload, lo, hi, selfAddr, replace)
	if _, err := c.Write(wire.AppendFrame(nil, payload)); err != nil {
		return err
	}
	scan := frameScanner{max: DefaultMaxFrame}
	for {
		n, err := c.Read(scan.room())
		if n > 0 {
			scan.filled(n)
			frame, ferr := scan.next()
			if ferr != nil {
				return ferr
			}
			if frame != nil {
				return m.mergeReply(frame)
			}
		}
		if err != nil {
			return err
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
		if err := m.registerGroup(e.Lo, e.Hi, e.Addr, true); err != nil && first == nil {
			first = err
		}
		if i < len(ages) && ages[i] >= 0 {
			m.observeSpan(e.Lo, e.Hi, e.Addr, time.Duration(ages[i])*time.Millisecond)
		}
	}
	return first
}

// handleAnnounce is the seed side of the bootstrap handshake: register
// the announced span, answer through reply with either the membership
// table or the rejection. False means the payload was undecodable.
func (m *membership) handleAnnounce(payload []byte, reply func(frame []byte)) bool {
	lo, hi, addr, replace, err := decodeAnnounce(payload)
	if err != nil {
		return false
	}
	frame := wire.AppendHeader(nil, wire.Header{Kind: kindMembership})
	regErr := m.registerGroup(lo, hi, addr, replace)
	if regErr != nil {
		reply(appendMembershipReject(frame, regErr.Error()))
		return true
	}
	// A direct announce is a heartbeat: record when we heard this span
	// (the freshness the age section reports) and feed the observer.
	// Idempotent keepalive re-announces land here too — that is the
	// detector's steady diet.
	m.announceAt.Store(lo, time.Now().UnixNano())
	m.observeSpan(lo, hi, addr, 0)
	gs := m.Groups()
	reply(appendMembership(frame, gs, m.ages(gs)))
	m.pushMembership()
	return true
}

// pushMembership broadcasts the current membership table to every
// remote peer with a known address, over the regular writer outboxes
// (msgs=0, so Sent/Dropped stay protocol-only; the receive side merges
// unsolicited kindMembership frames). A seed calls this after each
// accepted announce: the announce REPLY only reaches the one process
// that just dialed in, so members registered earlier would otherwise
// depend on their re-announce cadence to learn later spans — and a
// seed that completes its run and exits between a slow member's
// retries leaves that member waiting on coverage forever.
func (m *membership) pushMembership() {
	frame := wire.AppendHeader(nil, wire.Header{Kind: kindMembership})
	gs := m.Groups()
	frame = appendMembership(frame, gs, m.ages(gs))
	v := m.view.Load()
	for i, p := range v.peers {
		if m.locals[v.groups[i].Lo] || p.address() == "" {
			continue
		}
		bp, buf := m.st.newFrame()
		p.send(bp, append(buf, frame...), 0)
	}
}
