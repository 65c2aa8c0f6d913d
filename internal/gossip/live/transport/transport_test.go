package transport

import (
	"math"
	"sync/atomic"
	"testing"
	"time"

	"dynagg/internal/gossip"
)

func TestLossyDropRate(t *testing.T) {
	const n, msgs, p = 4, 20000, 0.3
	l := &Lossy{T: NewChannel(n, msgs), P: p, Seed: 42}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < msgs; i++ {
		l.Send(0, gossip.NodeID(1+i%(n-1)), i, i)
	}
	total := l.Sent() + l.Dropped()
	if total != msgs {
		t.Fatalf("sent %d + dropped %d != %d attempts", l.Sent(), l.Dropped(), msgs)
	}
	rate := float64(l.Dropped()) / float64(total)
	if math.Abs(rate-p) > 0.02 {
		t.Errorf("drop rate %.4f, want ≈ %.2f", rate, p)
	}
}

func TestLossyDelayDelivers(t *testing.T) {
	l := &Lossy{T: NewChannel(2, 4), Delay: 5 * time.Millisecond}
	l.Send(0, 1, 0, "late")
	count := 0
	l.Drain(1, func(any) { count++ })
	if count != 0 {
		t.Fatal("delayed message arrived immediately")
	}
	l.Close() // waits for delayed deliveries
	l.Drain(1, func(any) { count++ })
	if count != 1 {
		t.Errorf("got %d messages after delay, want 1", count)
	}
}

func TestLossyTransportSendAfterCloseDrops(t *testing.T) {
	l := &Lossy{T: NewChannel(2, 4), Delay: time.Millisecond}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l.Send(0, 1, 0, "x") {
		t.Error("send after Close accepted")
	}
	if l.Dropped() != 1 {
		t.Errorf("Dropped = %d, want 1", l.Dropped())
	}
}

func TestLossyValidate(t *testing.T) {
	if err := (&Lossy{P: 0.5}).Validate(); err == nil {
		t.Error("nil inner transport accepted")
	}
	if err := (&Lossy{T: NewChannel(1, 1), P: 1.5}).Validate(); err == nil {
		t.Error("P > 1 accepted")
	}
}

// detachCounter is a payload that counts the copies holders make of it.
type detachCounter struct{ n *atomic.Int64 }

func (p detachCounter) Detach() any { p.n.Add(1); return p }

// TestLossyOverChannelDetachesOnce pins one copy per held message: a
// delayed message is detached when the injector holds it and the
// channel queues that copy as it is; an undelayed one is detached by
// the channel alone.
func TestLossyOverChannelDetachesOnce(t *testing.T) {
	const msgs = 16
	for _, delay := range []time.Duration{0, time.Millisecond} {
		var copies atomic.Int64
		l := &Lossy{T: NewChannel(2, msgs), Delay: delay}
		for i := range msgs {
			l.Send(0, 1, i, detachCounter{&copies})
		}
		l.Close() // waits for delayed deliveries
		got := 0
		l.Drain(1, func(any) { got++ })
		if got != msgs || copies.Load() != msgs {
			t.Errorf("delay %v: %d delivered, %d copies; want %d and %d", delay, got, copies.Load(), msgs, msgs)
		}
	}
}
