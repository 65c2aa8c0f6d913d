package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"dynagg/internal/gossip"
	"dynagg/internal/protocol/pushsumrevert"
	"dynagg/internal/protocol/sketchreset"
	"dynagg/internal/wire"
)

// tcpPair builds two TCP transports over one 8-host population, each
// owning one group, with peer addresses exchanged — the stream mirror
// of TestUDPTwoTransportsHandshake's setup. Extra options apply to
// both sides.
func tcpPair(t *testing.T, opts ...TCPOption) (a, b *TCP) {
	t.Helper()
	groups := []Group{{Lo: 0, Hi: 4}, {Lo: 4, Hi: 8}}
	mk := func(local int) *TCP {
		gs := append([]Group(nil), groups...)
		gs[local].Addr = "127.0.0.1:0"
		tr, err := NewTCP(append([]TCPOption{WithGroups(gs...), WithLocal(local)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a, b = mk(0), mk(1)
	if err := a.SetGroupAddr(1, b.GroupAddr(1)); err != nil {
		t.Fatal(err)
	}
	if err := b.SetGroupAddr(0, a.GroupAddr(0)); err != nil {
		t.Fatal(err)
	}
	return a, b
}

// sendUntilDelivered retries Send on tx until the payload it sent
// (a comparable value) lands at `to` on rx — the polling a transport
// with reconnect windows needs where a lossless one could assert a
// single Send. Retransmissions an earlier call left queued are other
// payloads and are skipped, so a call never returns a stale delivery.
func sendUntilDelivered(t *testing.T, tx, rx Transport, from, to gossip.NodeID, payload any) any {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		tx.Send(from, to, 0, payload)
		delivered := false
		rx.Drain(to, func(p any) { delivered = delivered || p == payload })
		if delivered {
			return payload
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("payload %v did not reach host %d within deadline", payload, to)
	return nil
}

func TestTCPTransportRoundTripsEveryPayloadKind(t *testing.T) {
	tr, err := NewTCPLoopback(8, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	payloads := []any{
		pushsumrevert.Mass{W: 0.5, V: 2.25},
		&pushsumrevert.Mass{W: 1, V: -3},
		pushsumrevert.Mass{W: 0.125, V: 7},
		&sketchreset.Counters{Ages: []uint8{0, 0, 3, 255, 255, 9}},
	}
	for i, payload := range payloads {
		to := gossip.NodeID(i % 8)
		from := (to + 1) % 8
		if !tr.Send(from, to, i, payload) {
			t.Fatalf("payload %d (%T): Send failed", i, payload)
		}
		got := drainOne(t, tr, to)
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
	// Sent is counted at the kernel hand-off in the writer goroutine,
	// so it trails Send acceptance; everything already drained, so it
	// only needs a moment to settle.
	deadline := time.Now().Add(5 * time.Second)
	for tr.Sent() != int64(len(payloads)) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if tr.Sent() != int64(len(payloads)) {
		t.Errorf("Sent = %d, want %d", tr.Sent(), len(payloads))
	}
}

func TestTCPTwoTransportsHandshake(t *testing.T) {
	a, b := tcpPair(t)
	defer a.Close()
	defer b.Close()
	if got := sendUntilDelivered(t, a, b, 1, 6, pushsumrevert.Mass{W: 0.5, V: 5}); got != (pushsumrevert.Mass{W: 0.5, V: 5}) {
		t.Errorf("b received %v", got)
	}
	if got := sendUntilDelivered(t, b, a, 6, 1, pushsumrevert.Mass{W: 0.25, V: 9}); got != (pushsumrevert.Mass{W: 0.25, V: 9}) {
		t.Errorf("a received %v", got)
	}
}

// TestTCPBatchRoundTrip drives the columnar plane over a socket pair:
// a whole batch body must arrive intact at the destination group's
// queue, with per-message accounting.
func TestTCPBatchRoundTrip(t *testing.T) {
	a, b := tcpPair(t)
	defer a.Close()
	defer b.Close()
	body := bytes.Repeat([]byte{0xAB, 1, 2, 3}, 100)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		a.SendBatch(1, 7, 3, body)
		var got []byte
		b.DrainBatch(1, func(bb []byte) { got = append([]byte(nil), bb...) })
		if got != nil {
			if !bytes.Equal(got, body) {
				t.Fatalf("batch body did not round trip: %d bytes", len(got))
			}
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("batch never delivered (sent=%d dropped=%d)", a.Sent(), b.Dropped())
}

// TestTCPPartialReadsAcrossFrameBoundaries dribbles a valid frame into
// a listener one byte at a time: the scanner must reassemble it across
// reads, never mis-split it.
func TestTCPPartialReadsAcrossFrameBoundaries(t *testing.T) {
	tr, err := NewTCPLoopback(4, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	raw, err := net.Dial("tcp", tr.GroupAddr(0))
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	env, err := appendEnvelope(nil, 0, 2, 9, pushsumrevert.Mass{W: 0.75, V: 11})
	if err != nil {
		t.Fatal(err)
	}
	// Two frames back to back, sliced into single bytes: the second
	// must survive the first's boundary landing mid-read.
	stream := wire.AppendFrame(wire.AppendFrame(nil, env), env)
	for i := range stream {
		if _, err := raw.Write(stream[i : i+1]); err != nil {
			t.Fatal(err)
		}
	}
	// The two frames may surface in different polls, and Drain
	// consumes: count across polls, within a deadline.
	n := 0
	for deadline := time.Now().Add(10 * time.Second); n < 2 && time.Now().Before(deadline); {
		tr.Drain(2, func(p any) {
			n++
			if p != (pushsumrevert.Mass{W: 0.75, V: 11}) {
				t.Errorf("reassembled payload %d = %v", n, p)
			}
		})
		time.Sleep(time.Millisecond)
	}
	if n != 2 {
		t.Fatalf("reassembled %d of 2 frames", n)
	}
}

// TestTCPCorruptStreamDropsConnection writes an unframeable byte
// sequence: the receiver cannot resynchronize, so it must hang up
// rather than guess.
func TestTCPCorruptStreamDropsConnection(t *testing.T) {
	tr, err := NewTCPLoopback(4, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	raw, err := net.Dial("tcp", tr.GroupAddr(0))
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write(bytes.Repeat([]byte{0xFF}, 10)); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := raw.Read(make([]byte, 1)); err == nil {
		t.Error("receiver kept a corrupt stream open")
	}
}

// TestTCPReconnectAfterPeerRestart kills and resurrects the receiving
// process (a new transport on the same address): the sender's cached
// connection dies, frames sent into the outage drop, and the
// reconnect-with-backoff path reacquires the restarted peer without
// any external coordination.
func TestTCPReconnectAfterPeerRestart(t *testing.T) {
	a, b := tcpPair(t, WithReconnectBackoff(2*time.Millisecond, 50*time.Millisecond))
	defer a.Close()
	sendUntilDelivered(t, a, b, 1, 6, pushsumrevert.Mass{W: 1, V: 1})

	addr := b.GroupAddr(1)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	// The restarted peer must bind the same address to be found again.
	cfg := []TCPOption{
		WithGroups(Group{Lo: 0, Hi: 4, Addr: a.GroupAddr(0)}, Group{Lo: 4, Hi: 8, Addr: addr}),
		WithLocal(1),
	}
	var b2 *TCP
	deadline := time.Now().Add(10 * time.Second)
	for {
		var err error
		if b2, err = NewTCP(cfg...); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer b2.Close()
	// Delivery resuming IS the assertion: it requires a's writer to
	// notice the dead connection and redial. Drop counts are not
	// asserted — a frame can die in the flush after being counted
	// Sent, so a short outage may legally record zero drops.
	if got := sendUntilDelivered(t, a, b2, 1, 6, pushsumrevert.Mass{W: 2, V: 3}); got != (pushsumrevert.Mass{W: 2, V: 3}) {
		t.Errorf("post-restart delivery = %v", got)
	}
}

// TestTCPSlowPeerDoesNotStallOtherGroups aims a hose at a peer that
// accepts and never reads, while talking to a healthy peer on the
// side: the slow link may drop everything, but sends must stay
// non-blocking and the healthy link must keep delivering.
func TestTCPSlowPeerDoesNotStallOtherGroups(t *testing.T) {
	slow, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	go func() {
		for {
			c, err := slow.Accept()
			if err != nil {
				return
			}
			defer c.Close() // accepted, never read
		}
	}()

	groups := []Group{{Lo: 0, Hi: 2, Addr: "127.0.0.1:0"}, {Lo: 2, Hi: 4, Addr: slow.Addr().String()}, {Lo: 4, Hi: 6}}
	a, err := NewTCP(WithGroups(groups...), WithLocal(0), WithQueueCapacity(8))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	bGroups := append([]Group(nil), groups...)
	bGroups[0].Addr = a.GroupAddr(0)
	bGroups[2].Addr = "127.0.0.1:0"
	b, err := NewTCP(WithGroups(bGroups...), WithLocal(2))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.SetGroupAddr(2, b.GroupAddr(2)); err != nil {
		t.Fatal(err)
	}

	// 50k sends toward the never-reading peer: each must return
	// immediately (accept-or-drop), no matter how jammed the link is.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50_000; i++ {
			a.Send(0, 3, i, pushsumrevert.Mass{W: 1, V: float64(i)})
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("sends toward the slow peer blocked")
	}
	if got := sendUntilDelivered(t, a, b, 0, 5, pushsumrevert.Mass{W: 3, V: 4}); got != (pushsumrevert.Mass{W: 3, V: 4}) {
		t.Errorf("healthy peer received %v", got)
	}
}

func TestTCPKillLinkSeversAndRedials(t *testing.T) {
	a, b := tcpPair(t, WithReconnectBackoff(2*time.Millisecond, 50*time.Millisecond))
	defer a.Close()
	defer b.Close()
	sendUntilDelivered(t, a, b, 1, 6, pushsumrevert.Mass{W: 1, V: 1})
	if !a.KillLink(6) {
		t.Fatal("KillLink found no live connection after a delivery")
	}
	if a.Kills() != 1 {
		t.Errorf("Kills = %d, want 1", a.Kills())
	}
	if got := sendUntilDelivered(t, a, b, 1, 6, pushsumrevert.Mass{W: 5, V: 6}); got != (pushsumrevert.Mass{W: 5, V: 6}) {
		t.Errorf("post-kill delivery = %v", got)
	}
}

// TestLossyOverTCPKillsLinks checks the loss translation: a drop draw
// on a stream transport severs the connection instead of silently
// discarding a datagram.
func TestLossyOverTCPKillsLinks(t *testing.T) {
	a, b := tcpPair(t)
	defer a.Close()
	defer b.Close()
	sendUntilDelivered(t, a, b, 1, 6, pushsumrevert.Mass{W: 1, V: 1}) // establish the link
	lt := &Lossy{T: a, P: 1}
	if lt.Send(1, 6, 0, pushsumrevert.Mass{W: 1, V: 1}) {
		t.Error("P=1 send accepted")
	}
	if a.Kills() != 1 {
		t.Errorf("Kills = %d, want 1 (drop draw should sever the link)", a.Kills())
	}
	if tcp, ok := AsTCP(lt); !ok || tcp != a {
		t.Error("AsTCP failed to unwrap Lossy")
	}
}

// TestTCPAnnounceBootstrapsMembership walks the full three-process
// handshake in-process: two joiners announce to a seed, learn the
// table, and re-announce until everyone covers the population.
func TestTCPAnnounceBootstrapsMembership(t *testing.T) {
	mk := func(lo, hi gossip.NodeID) *TCP {
		tr, err := NewTCP(WithGroups(Group{Lo: lo, Hi: hi, Addr: "127.0.0.1:0"}), WithLocal(0))
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	seed, j1, j2 := mk(0, 4), mk(4, 8), mk(8, 12)
	defer seed.Close()
	defer j1.Close()
	defer j2.Close()
	seedAddr := seed.GroupAddr(0)
	// Own addresses must be captured before any merge: registering the
	// seed's lower span shifts this process's own group off index 0.
	j1Addr, j2Addr := j1.GroupAddr(0), j2.GroupAddr(0)

	if err := j1.Announce(seedAddr, 4, 8, j1Addr); err != nil {
		t.Fatal(err)
	}
	if !seed.Covers(8) && seed.Covers(12) {
		t.Error("seed membership inconsistent after first announce")
	}
	if err := j2.Announce(seedAddr, 8, 12, j2Addr); err != nil {
		t.Fatal(err)
	}
	if !seed.Covers(12) {
		t.Errorf("seed does not cover the population: %v", seed.Groups())
	}
	if !j2.Covers(12) {
		t.Errorf("second joiner missed the table: %v", j2.Groups())
	}
	// The first joiner announced before j2 existed; one retry closes
	// the gap — the loop live.Bootstrap runs.
	if err := j1.Announce(seedAddr, 4, 8, j1Addr); err != nil {
		t.Fatal(err)
	}
	if !j1.Covers(12) {
		t.Errorf("first joiner missed the table after re-announce: %v", j1.Groups())
	}

	// Cross-traffic over bootstrapped links, both directions.
	if got := sendUntilDelivered(t, j1, seed, 5, 1, pushsumrevert.Mass{W: 1, V: 2}); got != (pushsumrevert.Mass{W: 1, V: 2}) {
		t.Errorf("joiner→seed = %v", got)
	}
	if got := sendUntilDelivered(t, seed, j2, 1, 10, pushsumrevert.Mass{W: 3, V: 4}); got != (pushsumrevert.Mass{W: 3, V: 4}) {
		t.Errorf("seed→joiner2 = %v", got)
	}
}

// TestTCPSpanObserverHeartbeats pins the liveness feed the health
// detector rides: a seed's observer sees every direct announce with
// age 0, and a joiner's observer learns the OTHER spans' freshness
// from the seed's relayed membership ages — without ever hearing those
// spans announce directly.
func TestTCPSpanObserverHeartbeats(t *testing.T) {
	mk := func(lo, hi gossip.NodeID) *TCP {
		tr, err := NewTCP(WithGroups(Group{Lo: lo, Hi: hi, Addr: "127.0.0.1:0"}), WithLocal(0))
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	type obs struct {
		lo  gossip.NodeID
		age time.Duration
	}
	record := func(tr *TCP) *struct {
		mu   sync.Mutex
		seen []obs
	} {
		r := &struct {
			mu   sync.Mutex
			seen []obs
		}{}
		tr.SetSpanObserver(func(lo, hi gossip.NodeID, addr string, age time.Duration) {
			r.mu.Lock()
			r.seen = append(r.seen, obs{lo: lo, age: age})
			r.mu.Unlock()
		})
		return r
	}

	seed, j1, j2 := mk(0, 4), mk(4, 8), mk(8, 12)
	defer seed.Close()
	defer j1.Close()
	defer j2.Close()
	seedObs, j1Obs := record(seed), record(j1)
	seedAddr := seed.GroupAddr(0)
	j1Addr, j2Addr := j1.GroupAddr(0), j2.GroupAddr(0)

	if err := j1.Announce(seedAddr, 4, 8, j1Addr); err != nil {
		t.Fatal(err)
	}
	if err := j2.Announce(seedAddr, 8, 12, j2Addr); err != nil {
		t.Fatal(err)
	}
	// j1 re-announces: its reply now carries the seed's ages for every
	// span, including j2's, which j1 has never heard from directly.
	if err := j1.Announce(seedAddr, 4, 8, j1Addr); err != nil {
		t.Fatal(err)
	}

	seedObs.mu.Lock()
	directs := 0
	for _, o := range seedObs.seen {
		if o.age != 0 {
			t.Errorf("seed saw a non-direct observation: %+v", o)
		}
		if o.lo == 4 || o.lo == 8 {
			directs++
		}
	}
	seedObs.mu.Unlock()
	if directs < 3 {
		t.Errorf("seed observer saw %d direct announces, want >= 3", directs)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		j1Obs.mu.Lock()
		sawJ2 := false
		for _, o := range j1Obs.seen {
			if o.lo == 8 && o.age >= 0 {
				sawJ2 = true
			}
		}
		j1Obs.mu.Unlock()
		if sawJ2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("joiner observer never learned span [8,12)'s freshness from relayed ages")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTCPAnnounceLateSeed reserves an address, announces into the
// void (plain error, retryable), then starts the seed there and
// retries — the late-starting-seed scenario bootstrap must survive.
func TestTCPAnnounceLateSeed(t *testing.T) {
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	seedAddr := probe.Addr().String()
	probe.Close()

	j := mustTCP(t, WithGroups(Group{Lo: 4, Hi: 8, Addr: "127.0.0.1:0"}), WithLocal(0), WithDialTimeout(500*time.Millisecond))
	defer j.Close()
	err = j.Announce(seedAddr, 4, 8, j.GroupAddr(0))
	if err == nil {
		t.Fatal("announce with no seed listening succeeded")
	}
	if errors.Is(err, ErrSpanConflict) {
		t.Fatalf("absent seed misreported as span conflict: %v", err)
	}

	seed := mustTCP(t, WithGroups(Group{Lo: 0, Hi: 4, Addr: seedAddr}), WithLocal(0))
	defer seed.Close()
	if err := j.Announce(seedAddr, 4, 8, j.GroupAddr(0)); err != nil {
		t.Fatalf("announce after seed start: %v", err)
	}
	if !j.Covers(8) {
		t.Errorf("joiner table incomplete: %v", j.Groups())
	}
}

func mustTCP(t *testing.T, opts ...TCPOption) *TCP {
	t.Helper()
	tr, err := NewTCP(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestTCPSpanRegistrationConflicts covers the validation satellite:
// identical spans are idempotent, same-span-different-address and
// overlapping spans are ErrSpanConflict — locally via RegisterGroup
// and end-to-end via a rejected announce.
func TestTCPSpanRegistrationConflicts(t *testing.T) {
	seed := mustTCP(t, WithGroups(Group{Lo: 0, Hi: 4, Addr: "127.0.0.1:0"}), WithLocal(0))
	defer seed.Close()
	if err := seed.RegisterGroup(4, 8, "127.0.0.1:40001"); err != nil {
		t.Fatal(err)
	}
	if err := seed.RegisterGroup(4, 8, "127.0.0.1:40001"); err != nil {
		t.Errorf("idempotent re-registration failed: %v", err)
	}
	if err := seed.RegisterGroup(4, 8, "127.0.0.1:40002"); !errors.Is(err, ErrSpanConflict) {
		t.Errorf("same span, different addr: err = %v, want ErrSpanConflict", err)
	}
	if err := seed.RegisterGroup(6, 10, "127.0.0.1:40003"); !errors.Is(err, ErrSpanConflict) {
		t.Errorf("overlapping span: err = %v, want ErrSpanConflict", err)
	}
	if err := seed.RegisterGroup(2, 2, "127.0.0.1:40004"); err == nil {
		t.Error("empty span accepted")
	}

	// End-to-end: a process claiming an already-owned span is rejected
	// in the announce reply.
	imp := mustTCP(t, WithGroups(Group{Lo: 4, Hi: 8, Addr: "127.0.0.1:0"}), WithLocal(0))
	defer imp.Close()
	err := imp.Announce(seed.GroupAddr(0), 4, 8, imp.GroupAddr(0))
	if !errors.Is(err, ErrSpanConflict) {
		t.Errorf("conflicting announce: err = %v, want ErrSpanConflict", err)
	}
}

func TestTCPConfigValidation(t *testing.T) {
	if _, err := NewTCP(); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := NewTCP(WithGroups(Group{Lo: 2, Hi: 2, Addr: "127.0.0.1:0"}), WithLocal(0)); err == nil {
		t.Error("empty group range accepted")
	}
	if _, err := NewTCP(
		WithGroups(Group{Lo: 0, Hi: 4, Addr: "127.0.0.1:0"}, Group{Lo: 2, Hi: 6, Addr: "127.0.0.1:0"}),
		WithLocal(0, 1),
	); err == nil {
		t.Error("overlapping groups accepted")
	}
	if _, err := NewTCP(WithGroups(Group{Lo: 0, Hi: 4}), WithLocal(0)); err == nil {
		t.Error("local group without bind address accepted")
	}
	if _, err := NewTCP(WithGroups(Group{Lo: 0, Hi: 4, Addr: "127.0.0.1:0"}), WithLocal(3)); err == nil {
		t.Error("out-of-range local index accepted")
	}
}

// feedScanner plays one socket read of exactly p into the scanner, the
// way readConn does: straight into the spare capacity room offers.
func feedScanner(t testing.TB, s *frameScanner, p []byte) {
	t.Helper()
	n := copy(s.room(), p)
	if n != len(p) {
		t.Fatalf("scanner offered %d bytes of room for a %d-byte read", n, len(p))
	}
	s.filled(n)
}

// scanAll drains every complete frame the scanner holds.
func scanAll(t testing.TB, s *frameScanner) [][]byte {
	t.Helper()
	var got [][]byte
	for {
		f, err := s.next()
		if err != nil {
			t.Fatal(err)
		}
		if f == nil {
			return got
		}
		got = append(got, append([]byte(nil), f...))
	}
}

// TestFrameScannerRecoversFramesAcrossChunks is the deterministic twin
// of FuzzFrameScanner: a stream of frames fed in every chunk size from
// 1 byte up must yield exactly the original frame sequence.
func TestFrameScannerRecoversFramesAcrossChunks(t *testing.T) {
	var stream []byte
	var want [][]byte
	for i := 0; i < 20; i++ {
		p := bytes.Repeat([]byte{byte(i)}, i*13%97)
		want = append(want, p)
		stream = wire.AppendFrame(stream, p)
	}
	for chunk := 1; chunk <= len(stream); chunk += 7 {
		s := frameScanner{max: 1 << 10}
		var got [][]byte
		for off := 0; off < len(stream); off += chunk {
			end := off + chunk
			if end > len(stream) {
				end = len(stream)
			}
			feedScanner(t, &s, stream[off:end])
			got = append(got, scanAll(t, &s)...)
		}
		if len(got) != len(want) {
			t.Fatalf("chunk %d: recovered %d frames, want %d", chunk, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("chunk %d: frame %d mismatch", chunk, i)
			}
		}
	}
}

// TestFrameScannerGrowsOnlyToTheLargestFrame pins the in-place reader's
// memory rule: the buffer starts at one read's worth, a frame split
// across three reads or larger than the initial buffer is reassembled
// intact (with small frames either side of it, so compaction has
// something to discard and something to keep), and the buffer ends no
// larger than the biggest frame plus one read — never a flat
// pre-payment per connection. A claimed length above max is still
// refused before any of its payload is buffered.
func TestFrameScannerGrowsOnlyToTheLargestFrame(t *testing.T) {
	pattern := func(n int) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = byte(i * 7)
		}
		return p
	}
	small, big := pattern(300), pattern(3*readChunk+123)
	for _, tc := range []struct {
		name  string
		frame []byte
		reads int // the frame's bytes arrive in this many reads
	}{
		{"split across three reads", pattern(9000), 3},
		{"larger than the initial buffer", big, (len(big) + readChunk/2 - 1) / (readChunk / 2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := frameScanner{max: 1 << 20}
			if got := len(s.room()); got != readChunk {
				t.Fatalf("initial room %d, want %d", got, readChunk)
			}
			stream := wire.AppendFrame(nil, small)
			lead := len(stream)
			stream = wire.AppendFrame(stream, tc.frame)
			tail := len(stream)
			stream = wire.AppendFrame(stream, small)
			// The leading small frame rides in with the first piece of
			// the large one, the trailing small frame with its last.
			step := (tail - lead + tc.reads - 1) / tc.reads
			var got [][]byte
			for off := 0; off < len(stream); {
				end := off + step
				if off == 0 {
					end += lead
				}
				if end >= tail {
					end = len(stream)
				}
				feedScanner(t, &s, stream[off:end])
				got = append(got, scanAll(t, &s)...)
				off = end
			}
			want := [][]byte{small, tc.frame, small}
			if len(got) != len(want) {
				t.Fatalf("recovered %d frames, want %d", len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Errorf("frame %d differs", i)
				}
			}
			if limit := len(tc.frame) + binary.MaxVarintLen32 + readChunk; cap(s.buf) > limit {
				t.Errorf("buffer grew to %d bytes for a %d-byte frame; limit is frame + one read = %d",
					cap(s.buf), len(tc.frame), limit)
			}
		})
	}

	s := frameScanner{max: 1 << 10}
	feedScanner(t, &s, binary.AppendUvarint(nil, 1<<10+1))
	if _, err := s.next(); err == nil {
		t.Error("a frame length above max was accepted")
	}
}

// FuzzFrameScanner feeds the TCP receive scanner adversarial streams
// in adversarial chunkings and cross-checks it against one-shot
// DecodeFrame on the whole input: both must yield the same frame
// sequence up to the same verdict (clean, starved, or corrupt).
func FuzzFrameScanner(f *testing.F) {
	f.Add(wire.AppendFrame(wire.AppendFrame(nil, []byte("ab")), nil), 1)
	f.Add(bytes.Repeat([]byte{0xFF}, 12), 3)
	f.Add(wire.AppendFrame(nil, bytes.Repeat([]byte{7}, 300)), 5)
	f.Fuzz(func(t *testing.T, data []byte, chunk int) {
		const max = 1 << 10
		if chunk < 1 {
			chunk = 1 - chunk
		}
		chunk = chunk%64 + 1

		var direct [][]byte
		var directErr error
		for rest := data; ; {
			frame, r, err := wire.DecodeFrame(rest, max)
			if errors.Is(err, wire.ErrShortFrame) {
				break
			}
			if err != nil {
				directErr = err
				break
			}
			direct = append(direct, append([]byte(nil), frame...))
			rest = r
		}

		s := frameScanner{max: max}
		var scanned [][]byte
		var scanErr error
	feed:
		for off := 0; off < len(data); off += chunk {
			end := off + chunk
			if end > len(data) {
				end = len(data)
			}
			feedScanner(t, &s, data[off:end])
			for {
				frame, err := s.next()
				if err != nil {
					scanErr = err
					break feed
				}
				if frame == nil {
					break
				}
				scanned = append(scanned, append([]byte(nil), frame...))
			}
		}

		if (scanErr == nil) != (directErr == nil) {
			t.Fatalf("verdicts diverge: scanner %v, direct %v", scanErr, directErr)
		}
		if len(scanned) != len(direct) {
			t.Fatalf("scanner yielded %d frames, direct %d", len(scanned), len(direct))
		}
		for i := range direct {
			if !bytes.Equal(scanned[i], direct[i]) {
				t.Fatalf("frame %d differs between scanner and direct decode", i)
			}
		}
	})
}

// TestMembershipCodecRoundTrip exercises the bootstrap payloads the
// fuzz targets upstream (header, frame) do not cover.
func TestMembershipCodecRoundTrip(t *testing.T) {
	groups := []Group{
		{Lo: 0, Hi: 4, Addr: "127.0.0.1:1111"},
		{Lo: 4, Hi: 8, Addr: ""}, // unknown addr must be omitted
		{Lo: 8, Hi: 12, Addr: "10.0.0.9:2222"},
	}
	entries, ages, reject, err := decodeMembership(appendMembership(nil, groups, nil))
	if err != nil || reject != "" {
		t.Fatalf("decode: %v %q", err, reject)
	}
	if len(entries) != 2 || entries[0] != groups[0] || entries[1] != groups[2] {
		t.Fatalf("entries = %+v", entries)
	}
	// No age section on the wire: every entry decodes as unknown.
	if len(ages) != 2 || ages[0] != AgeUnknown || ages[1] != AgeUnknown {
		t.Fatalf("ages without section = %v, want all AgeUnknown", ages)
	}
	_, _, reject, err = decodeMembership(appendMembershipReject(nil, "span taken"))
	if err != nil || reject != "span taken" {
		t.Fatalf("reject decode: %v %q", err, reject)
	}
	if _, _, _, err := decodeMembership(nil); err == nil {
		t.Error("empty membership payload accepted")
	}
	if _, _, _, err := decodeMembership([]byte{99}); err == nil {
		t.Error("unknown status byte accepted")
	}
}

// TestMembershipAgesRoundTrip pins the additive freshness section:
// ages survive the round trip aligned to the kept (addr-known)
// entries, unknown stays unknown, oversized claims and truncated
// sections decode as all-unknown, and a pre-ages decoder's payload
// (no trailing section) still parses.
func TestMembershipAgesRoundTrip(t *testing.T) {
	groups := []Group{
		{Lo: 0, Hi: 4, Addr: "127.0.0.1:1111"},
		{Lo: 4, Hi: 8, Addr: ""}, // omitted entry: its age must be skipped too
		{Lo: 8, Hi: 12, Addr: "10.0.0.9:2222"},
		{Lo: 12, Hi: 16, Addr: "10.0.0.9:3333"},
	}
	ages := []int64{0, 123, 4500, AgeUnknown}
	entries, got, reject, err := decodeMembership(appendMembership(nil, groups, ages))
	if err != nil || reject != "" {
		t.Fatalf("decode: %v %q", err, reject)
	}
	if len(entries) != 3 {
		t.Fatalf("entries = %+v", entries)
	}
	want := []int64{0, 4500, AgeUnknown}
	if len(got) != len(want) {
		t.Fatalf("ages = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("age[%d] = %d, want %d", i, got[i], want[i])
		}
	}

	// An age above the wire cap saturates to the cap — still "very
	// stale", never garbage or a decode error.
	_, got, _, err = decodeMembership(appendMembership(nil, groups[:1], []int64{maxAgeMillis + 5}))
	if err != nil || got[0] != maxAgeMillis {
		t.Fatalf("oversized age decoded as %v (err %v), want %d", got, err, int64(maxAgeMillis))
	}

	// A truncated age section is advisory damage only: table intact,
	// ages all unknown.
	full := appendMembership(nil, groups, ages)
	entries, got, _, err = decodeMembership(full[:len(full)-1])
	if err != nil || len(entries) != 3 {
		t.Fatalf("truncated section broke the table: %v %+v", err, entries)
	}
	for i, a := range got {
		if a != AgeUnknown {
			t.Errorf("truncated section: age[%d] = %d, want AgeUnknown", i, a)
		}
	}
}
