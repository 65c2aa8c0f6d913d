package transport

import (
	"bytes"
	"math"
	"net"
	"testing"
	"time"

	"dynagg/internal/gossip"
	"dynagg/internal/protocol/pushsumrevert"
	"dynagg/internal/wire"
)

// medium is one way of building the transport the contract table runs
// against: hosts [0,8) in two groups, [0,4) and [4,8).
type medium struct {
	name string
	// exact marks a medium that decides a message's fate inside Send,
	// so counters can be asserted exactly and immediately; the socket
	// media count asynchronously and may lose datagrams in the kernel.
	exact bool
	// open builds the transport with the given queue capacity. With
	// remote1 set, group 1 belongs to another process whose address is
	// not known; media that cannot express that return nil.
	open func(t *testing.T, capacity int, remote1 bool) Transport
}

func contractLayout(remote1 bool) (groups, local Option) {
	gs := []Group{{Lo: 0, Hi: 4, Addr: "127.0.0.1:0"}, {Lo: 4, Hi: 8, Addr: "127.0.0.1:0"}}
	if remote1 {
		gs[1].Addr = ""
		return WithGroups(gs...), WithLocal(0)
	}
	return WithGroups(gs...), WithLocal(0, 1)
}

func contractMedia() []medium {
	base := []medium{
		{"chan", true, func(t *testing.T, capacity int, remote1 bool) Transport {
			if remote1 {
				return nil
			}
			return NewChannelGroups(8, capacity, 2)
		}},
		{"udp", false, func(t *testing.T, capacity int, remote1 bool) Transport {
			groups, local := contractLayout(remote1)
			u, err := NewUDP(groups, local, WithQueueCapacity(capacity))
			if err != nil {
				t.Fatal(err)
			}
			return u
		}},
		{"tcp", false, func(t *testing.T, capacity int, remote1 bool) Transport {
			groups, local := contractLayout(remote1)
			tr, err := NewTCP(groups, local, WithQueueCapacity(capacity))
			if err != nil {
				t.Fatal(err)
			}
			return tr
		}},
	}
	media := base
	for _, m := range base {
		m := m
		media = append(media, medium{"lossy0/" + m.name, m.exact,
			func(t *testing.T, capacity int, remote1 bool) Transport {
				inner := m.open(t, capacity, remote1)
				if inner == nil {
					return nil
				}
				return &Lossy{T: inner}
			}})
	}
	return media
}

// eventually polls cond until it holds or five seconds pass.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func mass(i int) pushsumrevert.Mass { return pushsumrevert.Mass{W: 1, V: float64(i)} }

// drainBatches polls DrainBatch on the group until want bodies have
// arrived, returning copies.
func drainBatches(t *testing.T, b Batcher, group, want int) [][]byte {
	t.Helper()
	var got [][]byte
	eventually(t, "batch delivery", func() bool {
		b.DrainBatch(group, func(body []byte) { got = append(got, append([]byte(nil), body...)) })
		return len(got) >= want
	})
	return got
}

// TestTransportContract is the one statement of what every Transport
// and Batcher promises, run over each medium and over a lossless Lossy
// wrapped around each: the §II radio model — bounded queues,
// non-blocking sends, every lost message counted once — does not
// depend on what carries the bytes.
func TestTransportContract(t *testing.T) {
	rows := []struct {
		name string
		run  func(t *testing.T, m medium)
	}{
		{"per-host FIFO", func(t *testing.T, m medium) {
			tr := m.open(t, 16, false)
			defer tr.Close()
			const k = 12
			for i := 0; i < k; i++ {
				if !tr.Send(0, 5, i, mass(i)) {
					t.Fatalf("send %d within capacity rejected", i)
				}
			}
			var got []any
			eventually(t, "delivery", func() bool {
				tr.Drain(5, func(p any) { got = append(got, p) })
				return len(got) >= k
			})
			for i, p := range got {
				if p != mass(i) {
					t.Fatalf("payload %d = %v, want %v (arrival order)", i, p, mass(i))
				}
			}
			eventually(t, "Sent to settle", func() bool { return tr.Sent() == k })
			tr.Drain(5, func(p any) { t.Errorf("second Drain yielded %v", p) })
			tr.Drain(2, func(p any) { t.Errorf("host 2 received %v, sent to host 5", p) })
			if d := tr.Dropped(); d != 0 {
				t.Errorf("Dropped = %d, want 0", d)
			}
		}},
		{"queue overflow is counted per message", func(t *testing.T, m medium) {
			const capacity, burst = 2, 64
			tr := m.open(t, capacity, false)
			defer tr.Close()
			accepted := 0
			for i := 0; i < burst; i++ {
				if tr.Send(0, 5, i, mass(i)) {
					accepted++
				}
			}
			if m.exact {
				if accepted != capacity || tr.Sent() != capacity || tr.Dropped() != burst-capacity {
					t.Fatalf("accepted %d sent %d dropped %d, want %d/%d/%d",
						accepted, tr.Sent(), tr.Dropped(), capacity, capacity, burst-capacity)
				}
			}
			// Nothing drains during the burst, so the queue sheds all but
			// its capacity without ever blocking a sender or a reader.
			delivered := 0
			eventually(t, "one delivery and one counted drop", func() bool {
				tr.Drain(5, func(any) { delivered++ })
				return delivered > 0 && tr.Dropped() > 0
			})
			if got := int64(delivered) + tr.Dropped(); got > burst {
				t.Errorf("delivered %d + dropped %d exceeds the %d messages sent", delivered, tr.Dropped(), burst)
			}
		}},
		{"unroutable host", func(t *testing.T, m medium) {
			tr := m.open(t, 4, false)
			defer tr.Close()
			for _, to := range []gossip.NodeID{8, 99, -1, math.MaxInt32} {
				if tr.Send(0, to, 0, mass(1)) {
					t.Errorf("send to host %d outside every group accepted", to)
				}
				tr.Drain(to, func(p any) { t.Errorf("Drain(%d) yielded %v", to, p) })
			}
			if tr.Sent() != 0 || tr.Dropped() != 4 {
				t.Errorf("sent %d dropped %d, want 0/4", tr.Sent(), tr.Dropped())
			}
		}},
		{"unknown group address", func(t *testing.T, m medium) {
			tr := m.open(t, 4, true)
			if tr == nil {
				t.Skip("every group is local on this medium")
			}
			defer tr.Close()
			tr.Send(0, 6, 0, mass(1))
			tr.(Batcher).SendBatch(1, 0, 3, []byte{1, 2, 3, 4})
			eventually(t, "both transmissions counted dropped", func() bool { return tr.Dropped() == 4 })
			if tr.Sent() != 0 {
				t.Errorf("Sent = %d toward a group with no address", tr.Sent())
			}
		}},
		{"Send and SendBatch after Close", func(t *testing.T, m medium) {
			tr := m.open(t, 4, false)
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
			if tr.Send(0, 5, 0, mass(1)) {
				t.Error("Send after Close accepted")
			}
			if tr.(Batcher).SendBatch(1, 0, 3, []byte{1, 2, 3, 4}) {
				t.Error("SendBatch after Close accepted")
			}
			if tr.Sent() != 0 || tr.Dropped() != 4 {
				t.Errorf("sent %d dropped %d, want 0/4", tr.Sent(), tr.Dropped())
			}
		}},
		{"batch round trip", func(t *testing.T, m medium) {
			tr := m.open(t, 4, false)
			defer tr.Close()
			b, ok := AsBatcher(tr)
			if !ok || b.BatchGroups() != 2 {
				t.Fatalf("batch plane missing or not 2 groups")
			}
			for g, want := range [][2]gossip.NodeID{{0, 4}, {4, 8}} {
				if lo, hi := b.BatchGroup(g); lo != want[0] || hi != want[1] {
					t.Errorf("BatchGroup(%d) = [%d,%d), want [%d,%d)", g, lo, hi, want[0], want[1])
				}
			}
			bodies := [][]byte{{0x01, 0xaa, 0xbb, 0xcc}, {0x01, 0xdd, 0xee}}
			if !b.SendBatch(1, 5, 3, bodies[0]) || !b.SendBatch(1, 5, 2, bodies[1]) {
				t.Fatal("SendBatch rejected")
			}
			got := drainBatches(t, b, 1, 2)
			if len(got) != 2 || !bytes.Equal(got[0], bodies[0]) || !bytes.Equal(got[1], bodies[1]) {
				t.Errorf("drained %x, want %x in order", got, bodies)
			}
			eventually(t, "per-message Sent", func() bool { return tr.Sent() == 5 })
			b.DrainBatch(0, func([]byte) { t.Error("group 0 received a batch sent to group 1") })
		}},
		{"batch body is copied", func(t *testing.T, m medium) {
			tr := m.open(t, 4, false)
			defer tr.Close()
			b := tr.(Batcher)
			buf := []byte("before")
			if !b.SendBatch(0, 0, 1, buf) {
				t.Fatal("SendBatch rejected")
			}
			copy(buf, "mangle") // the caller reuses its encode buffer
			if got := drainBatches(t, b, 0, 1); !bytes.Equal(got[0], []byte("before")) {
				t.Errorf("drained %q, want the pre-mutation body", got[0])
			}
		}},
		{"batch overflow is counted per message", func(t *testing.T, m medium) {
			tr := m.open(t, 1, false)
			defer tr.Close()
			b := tr.(Batcher)
			first, second := b.SendBatch(0, 0, 2, []byte("\x01ok")), b.SendBatch(0, 0, 7, []byte("\x01overflow"))
			if m.exact && (!first || second) {
				t.Fatalf("SendBatch = %v, %v; want the second shed", first, second)
			}
			eventually(t, "the shed batch's 7 messages counted", func() bool { return tr.Dropped() == 7 })
			if m.exact && tr.Sent() != 2 {
				t.Errorf("Sent = %d, want 2", tr.Sent())
			}
		}},
		{"oversize batch is dropped whole", func(t *testing.T, m medium) {
			tr := m.open(t, 4, false)
			defer tr.Close()
			b := tr.(Batcher)
			if b.SendBatch(0, 0, 9, make([]byte, b.MaxBatchBody()+1)) {
				t.Fatal("oversized batch accepted")
			}
			if tr.Sent() != 0 || tr.Dropped() != 9 {
				t.Errorf("sent %d dropped %d, want 0/9", tr.Sent(), tr.Dropped())
			}
		}},
		{"DrainBatch on a group not received for yields nothing", func(t *testing.T, m medium) {
			tr := m.open(t, 4, true)
			if tr == nil {
				tr = m.open(t, 4, false)
			}
			defer tr.Close()
			b := tr.(Batcher)
			b.SendBatch(0, 0, 1, []byte{1, 2})
			drainBatches(t, b, 0, 1)
			for _, g := range []int{1, -1, 2, 99} {
				b.DrainBatch(g, func([]byte) { t.Errorf("DrainBatch(%d) yielded a batch", g) })
			}
		}},
		{"forged batch count on a stream is one drop", func(t *testing.T, m medium) {
			tr := m.open(t, 4, false)
			defer tr.Close()
			tcp, ok := AsTCP(tr)
			if !ok {
				t.Skip("needs a listener to write raw frames to")
			}
			raw, err := net.Dial("tcp", tcp.GroupAddr(0))
			if err != nil {
				t.Fatal(err)
			}
			defer raw.Close()
			// The same lie twice — two billion messages in a three-byte
			// body — once to a span nobody here owns, once to a local one;
			// then an honest frame, so arrival of the lot is observable.
			var stream []byte
			for _, to := range []int32{1000, 0} {
				forged := wire.AppendHeader(nil, wire.Header{Kind: kindColumnarBatch, To: to, From: math.MaxInt32})
				stream = wire.AppendFrame(stream, append(forged, 1, 2, 3))
			}
			honest := wire.AppendHeader(nil, wire.Header{Kind: kindColumnarBatch, To: 4, From: 1})
			stream = wire.AppendFrame(stream, append(honest, 1, 9))
			if _, err := raw.Write(stream); err != nil {
				t.Fatal(err)
			}
			if got := drainBatches(t, tcp, 1, 1); !bytes.Equal(got[0], []byte{1, 9}) {
				t.Errorf("honest batch arrived as %x", got[0])
			}
			if tcp.Dropped() != 2 || tcp.OverflowDrops() != 0 {
				t.Errorf("dropped %d overflow %d after two forged frames, want 2/0", tcp.Dropped(), tcp.OverflowDrops())
			}
			tcp.DrainBatch(0, func(body []byte) { t.Errorf("forged batch was queued: %x", body) })
		}},
	}
	for _, m := range contractMedia() {
		m := m
		t.Run(m.name, func(t *testing.T) {
			for _, row := range rows {
				row := row
				t.Run(row.name, func(t *testing.T) { row.run(t, m) })
			}
		})
	}
}
