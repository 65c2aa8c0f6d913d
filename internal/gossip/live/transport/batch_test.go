package transport

import (
	"math"
	"testing"

	"dynagg/internal/gossip"
)

// TestLossyBatchDropRate pins the injector's batch semantics: one loss
// draw per batch, all of its messages charged together, and the
// per-message drop rate converging to P.
func TestLossyBatchDropRate(t *testing.T) {
	const batches, msgsPer, p = 2000, 3, 0.5
	inner := NewChannelGroups(8, 2*batches, 1)
	l := &Lossy{T: inner, P: p, Seed: 7}
	body := []byte("xyz")
	for i := 0; i < batches; i++ {
		l.SendBatch(0, i, msgsPer, body)
	}
	total := float64(batches * msgsPer)
	rate := float64(l.Dropped()) / total
	if math.Abs(rate-p) > 0.05 {
		t.Errorf("drop rate %.4f over %d messages, want ≈ %.2f", rate, int(total), p)
	}
	if l.Dropped()%msgsPer != 0 {
		t.Errorf("Dropped = %d, want a multiple of %d (whole batches)", l.Dropped(), msgsPer)
	}
	if got := l.Sent() + l.Dropped(); got != int64(total) {
		t.Errorf("Sent+Dropped = %d, want %d", got, int(total))
	}
}

// TestAsBatcherUnwrapsCapability pins the capability probe: a Lossy
// stack is a Batcher exactly when its inner transport is one.
func TestAsBatcherUnwrapsCapability(t *testing.T) {
	ch := NewChannelGroups(4, 1, 2)
	if _, ok := AsBatcher(ch); !ok {
		t.Error("Channel must expose its batch plane")
	}
	if _, ok := AsBatcher(&Lossy{T: ch, P: 0.1}); !ok {
		t.Error("Lossy over a Batcher must expose the batch plane")
	}
	if _, ok := AsBatcher(&Lossy{T: plainTransport{}, P: 0.1}); ok {
		t.Error("Lossy over a batchless transport must not claim a batch plane")
	}
	if _, ok := AsBatcher(plainTransport{}); ok {
		t.Error("batchless transport must not claim a batch plane")
	}
}

// plainTransport implements Transport and nothing else.
type plainTransport struct{}

func (plainTransport) Send(from, to gossip.NodeID, tick int, payload any) bool { return false }
func (plainTransport) Drain(id gossip.NodeID, fn func(payload any))            {}
func (plainTransport) Sent() int64                                             { return 0 }
func (plainTransport) Dropped() int64                                          { return 0 }
func (plainTransport) Close() error                                            { return nil }
