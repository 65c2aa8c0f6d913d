package transport

import (
	"testing"
	"time"
)

// TestNewUDPOptionsMatchLoopbackHelper pins the option-style
// constructor against the loopback helper it generalizes: the same
// group layout, every group bound locally.
func TestNewUDPOptionsMatchLoopbackHelper(t *testing.T) {
	a, err := NewUDPLoopback(100, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewUDP(WithLoopbackGroups(100, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if a.BatchGroups() != b.BatchGroups() {
		t.Fatalf("group counts differ: %d vs %d", a.BatchGroups(), b.BatchGroups())
	}
	for g := 0; g < a.BatchGroups(); g++ {
		alo, ahi := a.BatchGroup(g)
		blo, bhi := b.BatchGroup(g)
		if alo != blo || ahi != bhi {
			t.Errorf("group %d: [%d,%d) vs [%d,%d)", g, alo, ahi, blo, bhi)
		}
		if b.GroupAddr(g) == "" {
			t.Errorf("group %d not bound locally", g)
		}
	}
}

// TestNewUDPValidation pins the constructor's guard rails through the
// option path.
func TestNewUDPValidation(t *testing.T) {
	if _, err := NewUDP(); err == nil {
		t.Error("NewUDP with no groups accepted")
	}
	if _, err := NewUDP(WithGroups(Group{Lo: 0, Hi: 8})); err == nil {
		t.Error("NewUDP with no local group accepted")
	}
}

// TestNewLossyOptions pins the lossy constructor: nil inner and
// out-of-range probabilities are rejected, and WithProfile installs
// the preset's full loss/delay/jitter triple.
func TestNewLossyOptions(t *testing.T) {
	if _, err := NewLossy(nil, WithLoss(0.1)); err == nil {
		t.Error("nil inner transport accepted")
	}
	ch := NewChannel(4, 0)
	if _, err := NewLossy(ch, WithLoss(1.5)); err == nil {
		t.Error("loss probability 1.5 accepted")
	}
	l, err := NewLossy(ch, WithProfile(Profile3G), WithLossSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	if l.P != Profile3G.Loss || l.Delay != Profile3G.Delay || l.Jitter != Profile3G.Jitter {
		t.Errorf("profile not applied: P=%v Delay=%v Jitter=%v, want %+v",
			l.P, l.Delay, l.Jitter, Profile3G)
	}
	if l.Seed != 42 {
		t.Errorf("Seed = %d, want 42", l.Seed)
	}
	m, err := NewLossy(ch, WithLoss(0.25), WithDelay(2*time.Millisecond, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if m.P != 0.25 || m.Delay != 2*time.Millisecond || m.Jitter != time.Millisecond {
		t.Errorf("options not applied: P=%v Delay=%v Jitter=%v", m.P, m.Delay, m.Jitter)
	}
}
