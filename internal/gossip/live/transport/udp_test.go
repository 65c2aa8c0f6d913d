package transport

import (
	"bytes"
	"math"
	"net"
	"testing"
	"time"

	"dynagg/internal/gossip"
	"dynagg/internal/protocol/pushsumrevert"
	"dynagg/internal/protocol/sketchreset"
	"dynagg/internal/sketch"
	"dynagg/internal/wire"
)

// drainOne polls Drain until one payload arrives (UDP delivery is
// asynchronous through the kernel) or the deadline passes.
func drainOne(t *testing.T, tr Transport, id gossip.NodeID) any {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		var got any
		n := 0
		tr.Drain(id, func(p any) { got = p; n++ })
		if n > 0 {
			if n != 1 {
				t.Fatalf("expected 1 payload, drained %d", n)
			}
			return got
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("no payload for host %d within deadline", id)
	return nil
}

func TestUDPTransportRoundTripsEveryPayloadKind(t *testing.T) {
	u, err := NewUDPLoopback(8, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()

	payloads := []any{
		pushsumrevert.Mass{W: 0.5, V: 2.25},
		&pushsumrevert.Mass{W: 1, V: -3},
		pushsumrevert.Mass{W: 0.125, V: 7},
		&sketchreset.Counters{Ages: []uint8{0, 0, 3, 255, 255, 9}},
		&sketchreset.Counters{Ages: []uint8{1, 1, 1, 254}},
	}
	for i, payload := range payloads {
		to := gossip.NodeID(i % 8)
		from := gossip.NodeID((i + 1) % 8)
		if from == to {
			from = (to + 1) % 8
		}
		if !u.Send(from, to, i, payload) {
			t.Fatalf("payload %d (%T): Send failed", i, payload)
		}
		got := drainOne(t, u, to)
		switch want := payload.(type) {
		case *pushsumrevert.Mass:
			if got != *want {
				t.Errorf("payload %d: got %v, want %v", i, got, *want)
			}
		case pushsumrevert.Mass:
			if got != want {
				t.Errorf("payload %d: got %v, want %v", i, got, want)
			}
		case *sketchreset.Counters:
			if _, ok := got.(*sketchreset.Packed); !ok {
				t.Fatalf("payload %d: got %T %v", i, got, got)
			}
			if g := unpackCounters(got, 2, len(want.Ages)/2); !bytes.Equal(g, want.Ages) {
				t.Errorf("payload %d: counters %v, want %v", i, g, want.Ages)
			}
		}
	}
	if u.Sent() != int64(len(payloads)) {
		t.Errorf("Sent = %d, want %d", u.Sent(), len(payloads))
	}
}

func TestUDPUnencodablePayloadDrops(t *testing.T) {
	u, err := NewUDPLoopback(2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	if u.Send(0, 1, 0, struct{ X int }{1}) {
		t.Error("unencodable payload accepted")
	}
	if u.Dropped() != 1 {
		t.Errorf("Dropped = %d, want 1", u.Dropped())
	}
}

func TestUDPTwoTransportsHandshake(t *testing.T) {
	// Two UDP transports over the same 8-host population, each owning
	// one group — the in-test model of two processes, including the
	// bind-then-learn-peer-address handshake.
	groups := []Group{{Lo: 0, Hi: 4}, {Lo: 4, Hi: 8}}
	mk := func(local int) *UDP {
		gs := append([]Group(nil), groups...)
		gs[local].Addr = "127.0.0.1:0"
		u, err := NewUDP(WithGroups(gs...), WithLocal(local))
		if err != nil {
			t.Fatal(err)
		}
		return u
	}
	a, b := mk(0), mk(1)
	defer a.Close()
	defer b.Close()
	if err := a.SetGroupAddr(1, b.GroupAddr(1)); err != nil {
		t.Fatal(err)
	}
	if err := b.SetGroupAddr(0, a.GroupAddr(0)); err != nil {
		t.Fatal(err)
	}

	if !a.Send(1, 6, 3, pushsumrevert.Mass{W: 0.5, V: 5}) {
		t.Fatal("a -> b send failed")
	}
	if got := drainOne(t, b, 6); got != (pushsumrevert.Mass{W: 0.5, V: 5}) {
		t.Errorf("b received %v", got)
	}
	if !b.Send(6, 1, 4, pushsumrevert.Mass{W: 0.25, V: 9}) {
		t.Fatal("b -> a send failed")
	}
	if got := drainOne(t, a, 1); got != (pushsumrevert.Mass{W: 0.25, V: 9}) {
		t.Errorf("a received %v", got)
	}
}

func TestUDPSendToUnknownGroupAddrDrops(t *testing.T) {
	u, err := NewUDP(WithGroups(Group{Lo: 0, Hi: 2, Addr: "127.0.0.1:0"}, Group{Lo: 2, Hi: 4}), WithLocal(0))
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	if u.Send(0, 3, 0, pushsumrevert.Mass{W: 1, V: 1}) {
		t.Error("send to address-less group accepted")
	}
	if u.Send(0, 99, 0, pushsumrevert.Mass{W: 1, V: 1}) {
		t.Error("send to host outside every group accepted")
	}
	if u.Dropped() != 2 {
		t.Errorf("Dropped = %d, want 2", u.Dropped())
	}
}

func TestUDPConfigValidation(t *testing.T) {
	if _, err := NewUDP(); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := NewUDP(WithGroups(Group{Lo: 2, Hi: 2, Addr: "127.0.0.1:0"}), WithLocal(0)); err == nil {
		t.Error("empty group range accepted")
	}
	if _, err := NewUDP(
		WithGroups(Group{Lo: 0, Hi: 4, Addr: "127.0.0.1:0"}, Group{Lo: 2, Hi: 6, Addr: "127.0.0.1:0"}),
		WithLocal(0, 1),
	); err == nil {
		t.Error("overlapping groups accepted")
	}
	if _, err := NewUDP(WithGroups(Group{Lo: 0, Hi: 4}), WithLocal(0)); err == nil {
		t.Error("local group without bind address accepted")
	}
	if _, err := NewUDP(WithGroups(Group{Lo: 0, Hi: 4, Addr: "127.0.0.1:0"}), WithLocal(3)); err == nil {
		t.Error("out-of-range local index accepted")
	}
}

// TestUDPForgedDatagramDoesNotPanicReceivers feeds a bound socket a
// hand-crafted datagram whose counter matrix is far larger than any
// host's sketch: the transport accepts it (the shape is legal wire
// format), and the protocol's Receive must shrug it off as a lost
// radio message instead of panicking the process.
func TestUDPForgedDatagramDoesNotPanicReceivers(t *testing.T) {
	u, err := NewUDPLoopback(2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	raw, err := net.Dial("udp", u.GroupAddr(0))
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	// A batch header claiming two billion messages in a three-byte
	// body, to a span nobody owns and to a local one: each is one
	// malformed datagram, and neither may charge its claim to Dropped.
	for _, to := range []int32{1000, 0} {
		lie := wire.AppendHeader(nil, wire.Header{Kind: kindColumnarBatch, To: to, From: math.MaxInt32})
		if _, err := raw.Write(append(lie, 1, 2, 3)); err != nil {
			t.Fatal(err)
		}
	}
	forged := wire.AppendHeader(nil, wire.Header{Kind: wire.KindCounters, To: 1, From: 0, Tick: 0})
	forged = wire.AppendCounters(forged, make([]uint8, 4096)) // nobody's sketch is this big
	if _, err := raw.Write(forged); err != nil {
		t.Fatal(err)
	}
	counters := drainOne(t, u, 1)
	if got := u.Dropped(); got != 2 {
		t.Errorf("Dropped = %d after two forged batch headers, want 2", got)
	}
	u.DrainBatch(0, func(body []byte) { t.Errorf("forged batch was queued: %x", body) })
	if _, ok := counters.(*sketchreset.Packed); !ok {
		t.Fatalf("forged payload decoded as %T", counters)
	}
	// The guard lives in the protocol: a mis-shaped matrix merges as
	// a no-op rather than indexing out of range.
	node := sketchreset.New(1, sketchreset.Config{Params: sketch.Params{Bins: 4, Levels: 8}, Identifiers: 1})
	before, _ := node.Estimate()
	node.Receive(counters)
	if after, _ := node.Estimate(); after != before {
		t.Errorf("forged matrix changed the estimate %v -> %v", before, after)
	}
}
