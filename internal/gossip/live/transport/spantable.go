package transport

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"dynagg/internal/gossip"
)

// ErrSpanConflict reports a membership registration that contradicts
// the table: the same span at a different address, or a range
// overlapping an existing group. Bootstrap treats it as fatal — two
// processes claiming one host range is a deployment bug, not a
// transient.
var ErrSpanConflict = errors.New("transport: span conflict")

// spanTable is the membership table as a value: the known spans sorted
// by Lo and disjoint, each at its current address, and what this
// process knows of each. apply is its one writer and never modifies a
// table in place, so a table handed to a reader stays valid. It reads
// no clock and holds no connection: time comes in as an argument, and
// what the peers must do goes out as a spanEffect.
type spanTable struct {
	spans []Group
	state []spanState // parallel to spans
}

// spanState is what the table holds of a span besides its range and
// address: whether this process listens for it, and when it last
// announced itself here directly (zero: never).
type spanState struct {
	local bool
	heard time.Time
}

// spanEvent is one input to the table: a span at an address ("" when
// unknown). local marks a span of the transport's layout as its own;
// replace lets an exact span match at a new address re-address the
// span instead of conflicting; heard is a direct announce's arrival.
type spanEvent struct {
	Group
	local, replace bool
	heard          time.Time
}

// spanEffect is what an applied event asks of the peers parallel to
// the table: open one at index at, re-aim peer at to the span's new
// address and cut its connection, or (both false) nothing.
type spanEffect struct {
	insert, readdress bool
	at                int
}

// apply returns the table after one event and its effect on the peers.
// Re-registering a span as it is changes only its heard time; an
// address for a span without one is taken; the same span at another
// address is ErrSpanConflict unless the event replaces and the span
// is not local; a partial overlap is ErrSpanConflict. A refused event
// returns the table unchanged.
func (t spanTable) apply(ev spanEvent) (spanTable, spanEffect, error) {
	lo, hi, addr := ev.Lo, ev.Hi, ev.Addr
	if lo < 0 || hi <= lo {
		return t, spanEffect{}, fmt.Errorf("transport: span [%d,%d) is empty", lo, hi)
	}
	// The first span ending after lo is the one the event matches or
	// first overlaps; if it starts at or after hi, the event goes there.
	i := sort.Search(len(t.spans), func(i int) bool { return t.spans[i].Hi > lo })
	if i == len(t.spans) || t.spans[i].Lo >= hi {
		// Clipped, Insert copies: the old table keeps its arrays.
		return spanTable{
			spans: slices.Insert(slices.Clip(t.spans), i, ev.Group),
			state: slices.Insert(slices.Clip(t.state), i, spanState{local: ev.local, heard: ev.heard}),
		}, spanEffect{insert: true, at: i}, nil
	}
	g, eff := t.spans[i], spanEffect{at: i}
	switch {
	case g.Lo != lo || g.Hi != hi:
		return t, spanEffect{}, fmt.Errorf("%w: span [%d,%d) overlaps registered [%d,%d)",
			ErrSpanConflict, lo, hi, g.Lo, g.Hi)
	case addr == "" || addr == g.Addr:
	case g.Addr == "" || ev.replace && !t.state[i].local:
		eff.readdress = true
		t.spans = slices.Clone(t.spans)
		t.spans[i].Addr = addr
	case !ev.replace:
		return t, spanEffect{}, fmt.Errorf("%w: span [%d,%d) already registered at %s, announced from %s",
			ErrSpanConflict, lo, hi, g.Addr, addr)
	default:
		// Nobody replaces this process's own listening span.
		return t, spanEffect{}, fmt.Errorf("%w: span [%d,%d) is local, refused replacement from %s",
			ErrSpanConflict, lo, hi, addr)
	}
	if !ev.heard.IsZero() {
		t.state = slices.Clone(t.state)
		t.state[i].heard = ev.heard
	}
	return t, eff, nil
}

// groups returns a copy of the spans with their current addresses.
func (t spanTable) groups() []Group { return slices.Clone(t.spans) }

// ages returns, parallel to the spans, each one's freshness at now in
// milliseconds: 0 for this process's own spans, the time since the
// last direct announce for a span heard from, AgeUnknown otherwise.
func (t spanTable) ages(now time.Time) []int64 {
	ages := make([]int64, len(t.state))
	for i, s := range t.state {
		switch {
		case s.local:
		case s.heard.IsZero():
			ages[i] = AgeUnknown
		default:
			ages[i] = max(now.Sub(s.heard).Milliseconds(), 0)
		}
	}
	return ages
}

// covers reports whether the spans tile [0, total) with every address
// known — the bootstrap completion condition. Spans at or above total
// (observer spans) neither help nor hurt: an observer joining
// mid-bootstrap must not flip anyone's coverage back to false.
func (t spanTable) covers(total int) bool {
	at := gossip.NodeID(0)
	for _, g := range t.spans {
		if int(at) >= total {
			break
		}
		if g.Lo != at || g.Addr == "" {
			return false
		}
		at = g.Hi
	}
	return int(at) >= total
}
