package transport

import (
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"dynagg/internal/gossip"
)

// spanTableOf applies events to an empty table, failing on any refusal.
func spanTableOf(t testing.TB, evs ...spanEvent) spanTable {
	t.Helper()
	var tab spanTable
	for _, ev := range evs {
		var err error
		if tab, _, err = tab.apply(ev); err != nil {
			t.Fatalf("apply %+v: %v", ev, err)
		}
	}
	return tab
}

// checkSpansDisjoint fails unless the table's spans are non-empty,
// sorted by Lo and non-overlapping, with one state per span.
func checkSpansDisjoint(t *testing.T, tab spanTable) {
	t.Helper()
	if len(tab.state) != len(tab.spans) {
		t.Fatalf("%d states for %d spans", len(tab.state), len(tab.spans))
	}
	for i, g := range tab.spans {
		if g.Lo >= g.Hi || i > 0 && g.Lo < tab.spans[i-1].Hi {
			t.Fatalf("spans not sorted and disjoint at %d: %v", i, tab.spans)
		}
	}
}

// TestSpanTableApply drives the table's one writer with no sockets:
// each case applies one event to the same three-span table and checks
// the effect, the error and the spans after. The table it started
// from must come out unchanged every time.
func TestSpanTableApply(t *testing.T) {
	heard := time.Unix(1000, 0)
	base := spanTableOf(t,
		spanEvent{Group: Group{Lo: 0, Hi: 4, Addr: "a:1"}, local: true},
		spanEvent{Group: Group{Lo: 8, Hi: 12, Addr: "c:1"}},
		spanEvent{Group: Group{Lo: 12, Hi: 16}},
	)
	baseSpans, baseState := base.groups(), slices.Clone(base.state)
	with := func(i int, addr string) []Group {
		gs := base.groups()
		gs[i].Addr = addr
		return gs
	}
	cases := []struct {
		name     string
		ev       spanEvent
		eff      spanEffect
		conflict bool    // want ErrSpanConflict
		fails    bool    // want another error
		spans    []Group // after; nil means unchanged
	}{
		{name: "idempotent re-register",
			ev: spanEvent{Group: Group{Lo: 8, Hi: 12, Addr: "c:1"}}, eff: spanEffect{at: 1}},
		{name: "a direct re-announce records when it was heard",
			ev: spanEvent{Group: Group{Lo: 8, Hi: 12, Addr: "c:1"}, heard: heard}, eff: spanEffect{at: 1}},
		{name: "re-register without an address",
			ev: spanEvent{Group: Group{Lo: 8, Hi: 12}}, eff: spanEffect{at: 1}},
		{name: "idempotent re-register of a local span under replace",
			ev: spanEvent{Group: Group{Lo: 0, Hi: 4, Addr: "a:1"}, replace: true}, eff: spanEffect{at: 0}},
		{name: "an address for a span without one is taken",
			ev:  spanEvent{Group: Group{Lo: 12, Hi: 16, Addr: "d:1"}},
			eff: spanEffect{readdress: true, at: 2}, spans: with(2, "d:1")},
		{name: "a new address without replace conflicts",
			ev: spanEvent{Group: Group{Lo: 8, Hi: 12, Addr: "c:2"}}, conflict: true},
		{name: "a new address under replace re-addresses",
			ev:  spanEvent{Group: Group{Lo: 8, Hi: 12, Addr: "c:2"}, replace: true},
			eff: spanEffect{readdress: true, at: 1}, spans: with(1, "c:2")},
		{name: "a local span refuses replacement",
			ev: spanEvent{Group: Group{Lo: 0, Hi: 4, Addr: "x:1"}, replace: true}, conflict: true},
		{name: "a partial overlap conflicts",
			ev: spanEvent{Group: Group{Lo: 2, Hi: 6, Addr: "x:1"}}, conflict: true},
		{name: "an overlap under replace conflicts",
			ev: spanEvent{Group: Group{Lo: 8, Hi: 16, Addr: "x:1"}, replace: true}, conflict: true},
		{name: "a span covering a gap and a neighbour conflicts",
			ev: spanEvent{Group: Group{Lo: 6, Hi: 10}}, conflict: true},
		{name: "an empty span fails",
			ev: spanEvent{Group: Group{Lo: 5, Hi: 5, Addr: "x:1"}}, fails: true},
		{name: "a negative span fails",
			ev: spanEvent{Group: Group{Lo: -2, Hi: 1, Addr: "x:1"}}, fails: true},
		{name: "insert into the gap keeps Lo order",
			ev:  spanEvent{Group: Group{Lo: 4, Hi: 8, Addr: "b:1"}},
			eff: spanEffect{insert: true, at: 1},
			spans: []Group{{Lo: 0, Hi: 4, Addr: "a:1"}, {Lo: 4, Hi: 8, Addr: "b:1"},
				{Lo: 8, Hi: 12, Addr: "c:1"}, {Lo: 12, Hi: 16}}},
		{name: "insert past the end appends",
			ev:  spanEvent{Group: Group{Lo: 16, Hi: 17, Addr: "o:1"}, heard: heard},
			eff: spanEffect{insert: true, at: 3},
			spans: []Group{{Lo: 0, Hi: 4, Addr: "a:1"}, {Lo: 8, Hi: 12, Addr: "c:1"},
				{Lo: 12, Hi: 16}, {Lo: 16, Hi: 17, Addr: "o:1"}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			next, eff, err := base.apply(c.ev)
			switch {
			case c.conflict:
				if !errors.Is(err, ErrSpanConflict) {
					t.Fatalf("err = %v, want ErrSpanConflict", err)
				}
			case c.fails:
				if err == nil || errors.Is(err, ErrSpanConflict) {
					t.Fatalf("err = %v, want a non-conflict error", err)
				}
			case err != nil:
				t.Fatalf("err = %v", err)
			}
			if eff != c.eff {
				t.Errorf("effect = %+v, want %+v", eff, c.eff)
			}
			want := c.spans
			if want == nil {
				want = baseSpans
			}
			if got := next.groups(); !reflect.DeepEqual(got, want) {
				t.Errorf("spans = %v, want %v", got, want)
			}
			checkSpansDisjoint(t, next)
			if err == nil && !c.ev.heard.IsZero() && next.state[eff.at].heard != c.ev.heard {
				t.Errorf("heard = %v, want %v", next.state[eff.at].heard, c.ev.heard)
			}
			if !reflect.DeepEqual(base.groups(), baseSpans) || !slices.Equal(base.state, baseState) {
				t.Fatalf("apply modified the table it started from: %v %v", base.groups(), base.state)
			}
		})
	}
}

// TestSpanTableAges pins the freshness readout: 0 for a local span,
// the time since the last direct announce for a heard one (a clock
// that stepped back reads 0), AgeUnknown for a span never heard from;
// a re-announce of a known span moves its heard time.
func TestSpanTableAges(t *testing.T) {
	t0 := time.Unix(5000, 0)
	tab := spanTableOf(t,
		spanEvent{Group: Group{Lo: 0, Hi: 4, Addr: "a:1"}, local: true},
		spanEvent{Group: Group{Lo: 4, Hi: 8, Addr: "b:1"}, heard: t0},
		spanEvent{Group: Group{Lo: 8, Hi: 12, Addr: "c:1"}},
	)
	if got, want := tab.ages(t0.Add(1500*time.Millisecond)), []int64{0, 1500, AgeUnknown}; !slices.Equal(got, want) {
		t.Errorf("ages = %v, want %v", got, want)
	}
	if got := tab.ages(t0.Add(-time.Second))[1]; got != 0 {
		t.Errorf("age before the announce = %d, want 0", got)
	}
	again := spanTableOf(t, spanEvent{Group: Group{Lo: 4, Hi: 8, Addr: "b:1"}, heard: t0})
	again, _, err := again.apply(spanEvent{Group: Group{Lo: 4, Hi: 8, Addr: "b:1"}, heard: t0.Add(time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	if got := again.ages(t0.Add(1200 * time.Millisecond)); !slices.Equal(got, []int64{200}) {
		t.Errorf("ages after a re-announce = %v, want [200]", got)
	}
}

// TestSpanTableCovers pins the bootstrap completion condition: spans
// must tile [0, total) with every address known, and spans at or above
// total (observer slots) are ignored, addressed or not.
func TestSpanTableCovers(t *testing.T) {
	ev := func(lo, hi int, addr string) spanEvent {
		return spanEvent{Group: Group{Lo: gossip.NodeID(lo), Hi: gossip.NodeID(hi), Addr: addr}}
	}
	cases := []struct {
		name  string
		evs   []spanEvent
		total int
		want  bool
	}{
		{"tiled", []spanEvent{ev(0, 4, "a"), ev(4, 8, "b")}, 8, true},
		{"observer without an address", []spanEvent{ev(0, 4, "a"), ev(4, 8, "b"), ev(8, 9, "")}, 8, true},
		{"observer with an address", []spanEvent{ev(0, 8, "a"), ev(8, 9, "o")}, 8, true},
		{"observer counted when inside total", []spanEvent{ev(0, 8, "a"), ev(8, 9, "")}, 9, false},
		{"gap", []spanEvent{ev(0, 4, "a"), ev(5, 8, "b")}, 8, false},
		{"unknown address", []spanEvent{ev(0, 4, "a"), ev(4, 8, "")}, 8, false},
		{"short", []spanEvent{ev(0, 4, "a")}, 8, false},
		{"empty table", nil, 8, false},
		{"empty population", nil, 0, true},
	}
	for _, c := range cases {
		if got := spanTableOf(t, c.evs...).covers(c.total); got != c.want {
			t.Errorf("%s: covers(%d) = %v, want %v", c.name, c.total, got, c.want)
		}
	}
}

// TestMembershipFrameAtTheCap bounds one membership frame's work,
// with no sockets: a frame of maxMembershipEntries one-host spans
// decodes and merges into an empty table in well under a second (each
// insert copies the table), one entry more is refused by the decoder,
// and a full table refuses a new span, so a seed answers that announce
// with a rejection instead of growing a table past what its members
// accept.
func TestMembershipFrameAtTheCap(t *testing.T) {
	frame := func(n int) []byte {
		groups := make([]Group, n)
		for i := range groups {
			groups[i] = Group{Lo: gossip.NodeID(i), Hi: gossip.NodeID(i + 1), Addr: fmt.Sprintf("10.0.%d.%d:4000", i/256, i%256)}
		}
		return appendMembership(nil, groups, nil)
	}
	start := time.Now()
	entries, _, _, err := decodeMembership(frame(maxMembershipEntries))
	if err != nil {
		t.Fatal(err)
	}
	var tab spanTable
	for _, e := range entries {
		if tab, _, err = tab.apply(spanEvent{Group: e, replace: true}); err != nil {
			t.Fatal(err)
		}
	}
	if took := time.Since(start); len(tab.spans) != maxMembershipEntries || took > time.Second {
		t.Errorf("a %d-entry frame merged into %d spans in %v, want all of them in under 1s",
			maxMembershipEntries, len(tab.spans), took)
	}
	if _, _, _, err := decodeMembership(frame(maxMembershipEntries + 1)); err == nil {
		t.Errorf("a %d-entry frame decoded, want it refused", maxMembershipEntries+1)
	}
	next := spanEvent{Group: Group{Lo: maxMembershipEntries, Hi: maxMembershipEntries + 1, Addr: "10.0.9.9:4000"}}
	if full, _, err := tab.apply(next); err == nil || len(full.spans) != maxMembershipEntries {
		t.Errorf("a full table took span %v (err %v), want it refused", next.Group, err)
	}
}

// hexAddr is an address as the membership codecs lay it out: a
// one-byte length, then the bytes, in hex.
func hexAddr(a string) string { return fmt.Sprintf("%02x%x", len(a), a) }

// seedHex adds each hex string, decoded, to a fuzz corpus.
func seedHex(f *testing.F, seeds ...string) {
	for _, s := range seeds {
		b, err := hex.DecodeString(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
}

// FuzzDecodeAnnounce: decoding a hostile announce payload never
// panics, an accepted one re-encodes to the same announce, and
// applying it to an empty table yields that one span or a refusal.
// Seeded with TestTCPFramesAreByteIdentical's announce payload.
func FuzzDecodeAnnounce(f *testing.F) {
	seedHex(f, "0004"+hexAddr("127.0.0.1:4242")+"00", "0408"+hexAddr("127.0.0.1:4343")+"01", "0c0c00", "")
	f.Fuzz(func(t *testing.T, payload []byte) {
		lo, hi, addr, replace, err := decodeAnnounce(payload)
		if err != nil {
			return
		}
		lo2, hi2, addr2, replace2, err := decodeAnnounce(appendAnnounce(nil, lo, hi, addr, replace))
		if err != nil || lo2 != lo || hi2 != hi || addr2 != addr || replace2 != replace {
			t.Fatalf("re-encoded announce decoded as (%d, %d, %q, %v, %v), want (%d, %d, %q, %v)",
				lo2, hi2, addr2, replace2, err, lo, hi, addr, replace)
		}
		tab, _, err := spanTable{}.apply(spanEvent{Group: Group{Lo: lo, Hi: hi, Addr: addr}, replace: replace})
		if want := (Group{Lo: lo, Hi: hi, Addr: addr}); err == nil && !slices.Equal(tab.spans, []Group{want}) {
			t.Fatalf("announce into an empty table left %v, want [%v]", tab.spans, want)
		}
		checkSpansDisjoint(t, tab)
	})
}

// FuzzDecodeMembership: decoding a hostile membership payload never
// panics; an accepted table, re-encoded, decodes to its entries that
// have an address with the same ages; and merging it into an empty
// table as a relayed membership leaves the spans sorted and disjoint.
// Seeded with TestTCPFramesAreByteIdentical's membership reply.
func FuzzDecodeMembership(f *testing.F) {
	seedHex(f,
		"0003"+"0004"+hexAddr("127.0.0.1:4000")+"0408"+hexAddr("127.0.0.1:4001")+"080c"+hexAddr("127.0.0.1:4343")+"010002",
		"0003"+"0004"+hexAddr("127.0.0.1:4000")+"0408"+hexAddr("127.0.0.1:4001")+"080c"+hexAddr("127.0.0.1:4343"),
		"0002"+"0004"+hexAddr("")+"0204"+hexAddr("b:1")+"0503",
		hex.EncodeToString(appendMembershipReject(nil, "span taken")),
	)
	f.Fuzz(func(t *testing.T, payload []byte) {
		entries, ages, reject, err := decodeMembership(payload)
		if err != nil || reject != "" {
			return
		}
		if len(ages) != len(entries) {
			t.Fatalf("%d ages for %d entries", len(ages), len(entries))
		}
		var known []Group
		var knownAges []int64
		for i, e := range entries {
			if e.Addr != "" {
				known, knownAges = append(known, e), append(knownAges, ages[i])
			}
		}
		again, againAges, reject, err := decodeMembership(appendMembership(nil, entries, ages))
		if err != nil || reject != "" {
			t.Fatalf("re-encoded table does not decode: %v %q", err, reject)
		}
		if !slices.Equal(again, known) || !slices.Equal(againAges, knownAges) {
			t.Fatalf("re-encoded table decoded as %v %v, want %v %v", again, againAges, known, knownAges)
		}
		var tab spanTable
		for _, e := range entries {
			tab, _, _ = tab.apply(spanEvent{Group: e, replace: true})
		}
		checkSpansDisjoint(t, tab)
	})
}
