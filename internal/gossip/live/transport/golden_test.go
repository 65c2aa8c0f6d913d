package transport

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"dynagg/internal/protocol/pushsumrevert"
	"dynagg/internal/wire"
)

// readRawFrame reads one complete length-prefixed frame off a raw
// connection and returns its bytes, prefix included.
func readRawFrame(t *testing.T, c net.Conn) []byte {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	var got []byte
	buf := make([]byte, 4096)
	for {
		n, err := c.Read(buf)
		got = append(got, buf[:n]...)
		if _, rest, ferr := wire.DecodeFrame(got, DefaultMaxFrame); ferr == nil {
			return got[:len(got)-len(rest)]
		} else if !errors.Is(ferr, wire.ErrShortFrame) {
			t.Fatalf("unframeable bytes %x: %v", got, ferr)
		}
		if err != nil {
			t.Fatalf("read after %x: %v", got, err)
		}
	}
}

// golden concatenates hex literals (even positions) with
// length-prefixed strings (odd positions) — the spliced-in parts are
// the ephemeral listener addresses, the only bytes of a frame a test
// run does not fix.
func golden(t *testing.T, parts ...string) []byte {
	t.Helper()
	var out []byte
	for i, p := range parts {
		if i%2 == 1 {
			out = append(append(out, byte(len(p))), p...)
			continue
		}
		b, err := hex.DecodeString(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b...)
	}
	return out
}

// TestTCPFramesAreByteIdentical pins what the TCP transport puts on
// the wire — one mass envelope, one batch frame, one announce, one
// membership reply — against bytes captured from the transport as it
// was before the receive plane and the stream/membership split, read
// off raw sockets so nothing but the wire is compared.
func TestTCPFramesAreByteIdentical(t *testing.T) {
	peer, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	peerAddr := peer.Addr().String()
	tr, err := NewTCP(
		WithGroups(Group{Lo: 0, Hi: 4, Addr: "127.0.0.1:0"}, Group{Lo: 4, Hi: 8, Addr: peerAddr}),
		WithLocal(0))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	selfAddr := tr.GroupAddr(0)
	check := func(name string, got, want []byte) {
		t.Helper()
		if !bytes.Equal(got, want) {
			t.Errorf("%s frame\n got %x\nwant %x", name, got, want)
		}
	}

	if !tr.Send(1, 6, 9, pushsumrevert.Mass{W: 0.5, V: 24.75}) {
		t.Fatal("Send rejected")
	}
	stream, err := peer.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	check("envelope", readRawFrame(t, stream), golden(t, "150102060109000000000000e03f0000000000c03840"))

	if !tr.SendBatch(1, 7, 3, []byte{0x02, 0x05, 0xaa, 0x06, 0xbb, 0x07, 0xcc}) {
		t.Fatal("SendBatch rejected")
	}
	check("batch", readRawFrame(t, stream), golden(t, "0c01070403070205aa06bb07cc"))

	// Announce toward the raw listener: capture the request, answer
	// with the table the transport already holds so the merge is a
	// no-op.
	announced := make(chan error, 1)
	go func() { announced <- tr.Announce(peerAddr, 0, 4, "127.0.0.1:4242") }()
	seedSide, err := peer.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer seedSide.Close()
	check("announce", readRawFrame(t, seedSide), golden(t, "17010800000000040e3132372e302e302e313a3432343200"))
	reply := wire.AppendHeader(nil, wire.Header{Kind: kindMembership})
	reply = appendMembership(reply, tr.Groups(), nil)
	if _, err := seedSide.Write(wire.AppendFrame(nil, reply)); err != nil {
		t.Fatal(err)
	}
	if err := <-announced; err != nil {
		t.Fatalf("Announce: %v", err)
	}

	// Announce to the transport's own listener from a raw socket and
	// capture the membership reply. The freshly announced span sorts
	// last, so its age — elapsed milliseconds since the announce, the
	// one clock-dependent byte — is the frame's final byte.
	raw, err := net.Dial("tcp", selfAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	req := wire.AppendHeader(nil, wire.Header{Kind: kindAnnounce})
	req = appendAnnounce(req, 8, 12, "127.0.0.1:4343", false)
	if _, err := raw.Write(wire.AppendFrame(nil, req)); err != nil {
		t.Fatal(err)
	}
	got := readRawFrame(t, raw)
	payload, _, err := wire.DecodeFrame(got, DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wire.AppendFrame(nil, payload)) {
		t.Errorf("membership frame length prefix is not the minimal uvarint: %x", got)
	}
	age := payload[len(payload)-1]
	if age < 1 || age > 100 {
		t.Errorf("announced span's age byte = %d, want age+1 of a few milliseconds", age)
	}
	check("membership", payload[:len(payload)-1], golden(t,
		"010900000000030004", selfAddr, "0408", peerAddr, "080c0e3132372e302e302e313a343334330100"))
}

// TestRetiredKindIsUnknown pins that the retired envelope kinds stay
// retired: a well-formed body of each one's old form must decode as an
// unknown kind, never as some other payload. Kind 1 tagged plain
// Push-Sum mass, kind 3 moments (w, v, q) mass, kind 5 a sketch's level
// count and bit vector, kind 6 an extremes candidate table.
func TestRetiredKindIsUnknown(t *testing.T) {
	cases := []struct {
		kind uint8
		body []byte
	}{
		{1, wire.AppendMass(nil, 0.5, 24.75)},
		{3, wire.AppendMass3(nil, 0.5, 24.75, 1300.5)},
		{5, wire.AppendSketchBits([]byte{8}, []uint64{0x0f, 0x03, 0x01, 0x00})},
		{6, wire.AppendCandidates(nil, []wire.Candidate{{Value: 9.5, Owner: 3, Age: 2}, {Value: -1, Owner: 7}})},
	}
	for _, c := range cases {
		env := wire.AppendHeader(nil, wire.Header{Kind: c.kind, To: 6, From: 1, Tick: 9})
		env = append(env, c.body...)
		want := fmt.Sprintf("unknown payload kind %d", c.kind)
		if _, payload, err := decodeEnvelope(env); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("kind-%d envelope decoded as %T (err %v), want an unknown-kind error", c.kind, payload, err)
		}
	}
}
