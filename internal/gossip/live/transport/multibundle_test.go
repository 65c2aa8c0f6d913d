package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"testing"
	"time"

	"dynagg/internal/gossip"
	"dynagg/internal/protocol/multi"
	"dynagg/internal/protocol/pushsumrevert"
	"dynagg/internal/protocol/sketchreset"
	"dynagg/internal/sketch"
	"dynagg/internal/wire"
)

// unpackCounters reads back a counter-matrix payload by delivering it
// to an all-Never host of the given shape (min with Never is the
// identity), the way a receiver consumes the packed form.
func unpackCounters(payload any, bins, levels int) []uint8 {
	node := sketchreset.New(0, sketchreset.Config{Params: sketch.Params{Bins: bins, Levels: levels}})
	node.Receive(payload)
	return matrixOf(node, bins, levels)
}

func matrixOf(node *sketchreset.Node, bins, levels int) []uint8 {
	out := make([]uint8, 0, bins*levels)
	for b := 0; b < bins; b++ {
		for l := 0; l < levels; l++ {
			out = append(out, node.CounterAt(b, l))
		}
	}
	return out
}

// unpackBundle reads back a bundle payload by delivering it to an
// empty observer: the masses that arrived, by name, and the matrix.
func unpackBundle(payload any, bins, levels int) (map[string]pushsumrevert.Mass, []uint8) {
	obs := multi.NewObserver(0, nil, sketchreset.Config{Params: sketch.Params{Bins: bins, Levels: levels}}, pushsumrevert.Config{})
	obs.BeginRound(0)
	obs.Receive(payload)
	obs.EndRound(0)
	masses := make(map[string]pushsumrevert.Mass)
	for _, name := range obs.Names() {
		agg, _ := obs.Agg(name)
		masses[name] = agg.Mass()
	}
	return masses, matrixOf(obs.Count(), bins, levels)
}

func TestMultiBundleRoundTrip(t *testing.T) {
	tr, err := NewTCPLoopback(8, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	counters := []uint8{255, 0, 3, 7, 255, 1}
	never := bytes.Repeat([]uint8{sketchreset.Never}, len(counters))
	bundles := []multi.Bundle{
		{
			Count: counters,
			Masses: []multi.NamedMass{
				{Name: "load", Mass: pushsumrevert.Mass{W: 0.5, V: 2.25}},
				{Name: "temp", Mass: pushsumrevert.Mass{W: 0.125, V: -7}},
			},
		},
		{Masses: []multi.NamedMass{{Name: "solo", Mass: pushsumrevert.Mass{W: 1, V: math.Pi}}}},
		{Count: &sketchreset.Counters{Ages: counters}},
	}
	for i, b := range bundles {
		payload := any(b)
		if i == 1 {
			payload = &bundles[i] // EmitAppend sends pointers
		}
		if !tr.Send(1, 5, i, payload) {
			t.Fatalf("bundle %d: Send failed", i)
		}
		got := drainOne(t, tr, 5)
		if _, ok := got.(*multi.Packed); !ok {
			t.Fatalf("bundle %d: delivered as %T", i, got)
		}
		masses, matrix := unpackBundle(got, 2, 3)
		if len(masses) != len(b.Masses) {
			t.Fatalf("bundle %d: %d masses, want %d", i, len(masses), len(b.Masses))
		}
		for _, m := range b.Masses {
			if masses[m.Name] != m.Mass {
				t.Errorf("bundle %d mass %q = %v, want %v", i, m.Name, masses[m.Name], m.Mass)
			}
		}
		want := never
		if b.Count != nil {
			want = counters
		}
		if !bytes.Equal(matrix, want) {
			t.Errorf("bundle %d counters = %v, want %v", i, matrix, want)
		}
	}
}

func TestMultiBundleAdversarialDecode(t *testing.T) {
	hdr := wire.AppendHeader(nil, wire.Header{Kind: kindMultiBundle, To: 1, From: 2})
	cases := map[string][]byte{
		"empty body":        hdr,
		"huge agg count":    append(append([]byte{}, hdr...), 0xff, 0xff, 0xff, 0xff, 0x7f),
		"name overruns":     append(append([]byte{}, hdr...), 1, 200, 'x'),
		"truncated mass":    append(append([]byte{}, hdr...), 1, 1, 'x', 9, 9),
		"missing flag":      buildBundleBytes(hdr, "a"),
		"bad flag":          append(buildBundleBytes(hdr, "a"), 7),
		"truncated counter": append(buildBundleBytes(hdr, "a"), 1, 0xff, 0x7f),
		"zero counters":     append(buildBundleBytes(hdr, "a"), 1, 0),
		"zero run":          append(buildBundleBytes(hdr, "a"), 1, 2, 0, 9, 2, 9),
		"run overshoots":    append(buildBundleBytes(hdr, "a"), 1, 2, 3, 9),
		"runs fall short":   append(buildBundleBytes(hdr, "a"), 1, 3, 2, 9),
	}
	for name, frame := range cases {
		if _, _, err := decodeEnvelope(frame); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	// The boundary case that must succeed: zero aggregates, no sketch.
	ok := append(append([]byte{}, hdr...), 0, 0)
	if _, payload, err := decodeEnvelope(ok); err != nil {
		t.Errorf("empty bundle: %v", err)
	} else if masses, _ := unpackBundle(payload, 2, 3); len(masses) != 0 {
		t.Errorf("empty bundle delivered %v", masses)
	}
}

// TestMalformedBundleIsOneDropAndMergesNothing is the packed path's
// trust boundary, end to end: a bundle whose masses are fine but whose
// counter runs are not is rejected whole by the reader — exactly one
// drop, nothing queued — so neither its masses nor the valid prefix of
// its matrix ever reach the destination host.
func TestMalformedBundleIsOneDropAndMergesNothing(t *testing.T) {
	tr, err := NewTCPLoopback(2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	conn, err := net.Dial("tcp", tr.GroupAddr(1))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	mk := func() *multi.Node {
		return multi.New(1, map[string]float64{"load": 4}, sketchreset.Config{Params: sketch.Params{Bins: 2, Levels: 3}}, pushsumrevert.Config{})
	}
	stateOf := func(n *multi.Node) string {
		agg, _ := n.Agg("load")
		return fmt.Sprint(agg.Mass(), n.Names(), matrixOf(n.Count(), 2, 3))
	}
	frame := func(body ...byte) []byte {
		return wire.AppendFrame(nil, append(wire.AppendHeader(nil, wire.Header{Kind: kindMultiBundle, To: 1, From: 0}), body...))
	}
	// One mass for a name the host runs, then six counters announced:
	// two good runs (which would zero four of the host's counters),
	// then a run that overshoots.
	bad := wire.AppendMass([]byte{1, 4, 'l', 'o', 'a', 'd'}, 1, 8)
	bad = append(bad, 1, 6, 2, 0, 2, 0, 5, 0)
	if _, err := conn.Write(frame(bad...)); err != nil {
		t.Fatal(err)
	}
	// An empty bundle behind it on the same stream marks the point by
	// which the reader has dealt with the first; receiving it changes
	// nothing.
	if _, err := conn.Write(frame(0, 0)); err != nil {
		t.Fatal(err)
	}
	host, control := mk(), mk()
	host.BeginRound(0)
	control.BeginRound(0)
	delivered := 0
	deadline := time.Now().Add(5 * time.Second)
	for delivered == 0 && time.Now().Before(deadline) {
		tr.Drain(1, func(p any) {
			delivered++
			host.Receive(p)
		})
		time.Sleep(time.Millisecond)
	}
	if delivered != 1 {
		t.Fatalf("drained %d payloads, want only the empty marker bundle", delivered)
	}
	if got := tr.Dropped(); got != 1 {
		t.Errorf("Dropped = %d after one malformed bundle, want 1", got)
	}
	host.EndRound(0)
	control.EndRound(0)
	if got, want := stateOf(host), stateOf(control); got != want {
		t.Errorf("destination state %s, want that of a host that received nothing: %s", got, want)
	}
}

// refDecodeBundle is the materialising bundle decoder the packed path
// replaced (scalar run loop included), kept as the reference
// FuzzPackedBundleMatchesDecoder compares the validator and the
// in-place fold against. It reports how many bytes it consumed.
func refDecodeBundle(src []byte) (b multi.Bundle, used int, err error) {
	rest := src
	count, n := binary.Uvarint(rest)
	if n <= 0 || count > 1<<10 {
		return b, 0, fmt.Errorf("bad aggregate count")
	}
	rest = rest[n:]
	for i := uint64(0); i < count; i++ {
		l, n := binary.Uvarint(rest)
		if n <= 0 || l > 256 || uint64(len(rest)-n) < l {
			return b, 0, fmt.Errorf("bad aggregate name length")
		}
		name := string(rest[n : n+int(l)])
		w, v, r, err := wire.DecodeMass(rest[n+int(l):])
		if err != nil {
			return b, 0, err
		}
		b.Masses = append(b.Masses, multi.NamedMass{Name: name, Mass: pushsumrevert.Mass{W: w, V: v}})
		rest = r
	}
	if len(rest) < 1 {
		return b, 0, fmt.Errorf("missing sketch flag")
	}
	flag := rest[0]
	rest = rest[1:]
	switch flag {
	case 0:
	case 1:
		total, n := binary.Uvarint(rest)
		if n <= 0 || total == 0 || total > 1<<16 {
			return b, 0, fmt.Errorf("bad element count")
		}
		rest = rest[n:]
		counters := make([]uint8, 0, total)
		for uint64(len(counters)) < total {
			run, n := binary.Uvarint(rest)
			if n <= 0 || len(rest) < n+1 {
				return b, 0, fmt.Errorf("bad run")
			}
			v := rest[n]
			rest = rest[n+1:]
			if run == 0 || run > total-uint64(len(counters)) {
				return b, 0, fmt.Errorf("run overflows")
			}
			for ; run > 0; run-- {
				counters = append(counters, v)
			}
		}
		b.Count = counters
	default:
		return b, 0, fmt.Errorf("bad sketch flag %d", flag)
	}
	return b, len(src) - len(rest), nil
}

// FuzzDecodeMultiBundle hammers the bundle decoder with arbitrary
// bytes: it must reject or decode, never panic or over-allocate.
func FuzzDecodeMultiBundle(f *testing.F) {
	hdr := wire.AppendHeader(nil, wire.Header{Kind: kindMultiBundle, To: 1, From: 2})
	f.Add([]byte{})
	f.Add(append(append([]byte{}, hdr...), 0, 0))
	f.Add(fuzzSeedBundle(hdr))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, _ = decodeEnvelope(data)
	})
}

func fuzzSeedBundle(prefix []byte) []byte {
	valid, err := multi.AppendBundle(prefix, &multi.Bundle{
		Count:  []uint8{1, 2, 2, 2, 255, 255},
		Masses: []multi.NamedMass{{Name: "x", Mass: pushsumrevert.Mass{W: 1, V: 2}}},
	})
	if err != nil {
		panic(err)
	}
	return valid
}

// FuzzPackedBundleMatchesDecoder is the differential target for the
// packed path's trust boundary: the validator must accept exactly the
// bodies the materialising decoder accepted and consume the same
// number of bytes, and folding the packed form into a host must leave
// the state the materialised Bundle leaves.
func FuzzPackedBundleMatchesDecoder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add(fuzzSeedBundle(nil))
	f.Add(append(fuzzSeedBundle(nil), 0xEE))
	f.Add([]byte{2, 1, 'x', 0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 0, 0, 0, 0, 0, 0, 0, 0x40, 1, 'x', 0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 0, 0, 0, 0, 0, 0, 0, 0x40, 1, 6, 0x81, 0, 3, 5, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		want, used, refErr := refDecodeBundle(data)
		packed, err := multi.NewPacked(data)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("validator err %v, reference decoder err %v", err, refErr)
		}
		if err != nil {
			return
		}
		// Consumed exactly `used` bytes: those alone validate, one
		// fewer do not.
		if _, err := multi.NewPacked(data[:used]); err != nil {
			t.Fatalf("validator needs more than the %d bytes the reference consumed: %v", used, err)
		}
		if _, err := multi.NewPacked(data[:used-1]); err == nil {
			t.Fatalf("validator accepts fewer than the %d bytes the reference consumed", used)
		}
		shape := sketch.Params{Bins: 2, Levels: 3}
		if c, ok := want.Count.([]uint8); ok && len(c)%3 == 0 && len(c) <= 3*64 {
			shape.Bins = len(c) / 3
		}
		gotMasses, gotMatrix := unpackBundle(packed, shape.Bins, shape.Levels)
		wantMasses, wantMatrix := unpackBundle(want, shape.Bins, shape.Levels)
		if !bytes.Equal(gotMatrix, wantMatrix) {
			t.Fatalf("packed fold left matrix %v, materialised %v", gotMatrix, wantMatrix)
		}
		if fmt.Sprint(gotMasses) != fmt.Sprint(wantMasses) {
			t.Fatalf("packed fold left masses %v, materialised %v", gotMasses, wantMasses)
		}
	})
}

// buildBundleBytes assembles header + one named mass with no trailing
// sketch flag byte.
func buildBundleBytes(hdr []byte, name string) []byte {
	out := append(append([]byte{}, hdr...), 1, uint8(len(name)))
	out = append(out, name...)
	return wire.AppendMass(out, 1, 2)
}

// TestAnnounceReplaceReclaimsSpan is the observer-restart scenario: a
// span holder dies, comes back on a new ephemeral port, and reclaims
// its span with AnnounceReplace; the seed updates its table and pushes
// the new address to the other members, while a plain re-Announce from
// a different address keeps failing with ErrSpanConflict.
func TestAnnounceReplaceReclaimsSpan(t *testing.T) {
	mk := func(lo, hi gossip.NodeID) *TCP {
		tr, err := NewTCP(WithGroups(Group{Lo: lo, Hi: hi, Addr: "127.0.0.1:0"}), WithLocal(0))
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	seed, member := mk(0, 4), mk(4, 8)
	defer seed.Close()
	defer member.Close()
	seedAddr := seed.GroupAddr(0)
	if err := member.Announce(seedAddr, 4, 8, member.GroupAddr(0)); err != nil {
		t.Fatal(err)
	}

	obs1 := mk(8, 9)
	obs1Addr := obs1.GroupAddr(0)
	if err := obs1.Announce(seedAddr, 8, 9, obs1Addr); err != nil {
		t.Fatal(err)
	}
	if !seed.Covers(9) {
		t.Fatalf("seed does not cover observer: %v", seed.Groups())
	}
	obs1.Close()

	// Restarted process, same span, new port: plain announce must be
	// refused, replace must be accepted.
	obs2 := mk(8, 9)
	defer obs2.Close()
	obs2Addr := obs2.GroupAddr(0)
	if err := obs2.Announce(seedAddr, 8, 9, obs2Addr); err == nil {
		t.Fatal("plain re-announce from a new address was accepted")
	}
	if err := obs2.AnnounceReplace(seedAddr, 8, 9, obs2Addr); err != nil {
		t.Fatalf("AnnounceReplace: %v", err)
	}
	find := func(tr *TCP) string {
		for _, g := range tr.Groups() {
			if g.Lo == 8 && g.Hi == 9 {
				return g.Addr
			}
		}
		return ""
	}
	if got := find(seed); got != obs2Addr {
		t.Errorf("seed has observer at %q, want %q", got, obs2Addr)
	}
	// The member learns the replacement via the seed's membership push,
	// which rides the regular outboxes — poll.
	deadline := time.Now().Add(5 * time.Second)
	for find(member) != obs2Addr && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := find(member); got != obs2Addr {
		t.Errorf("member has observer at %q, want %q", got, obs2Addr)
	}
	// A local span can never be replaced out from under its owner.
	if err := seed.ReplaceGroup(0, 4, "127.0.0.1:1"); err == nil {
		t.Error("local span replacement was accepted")
	}
}
