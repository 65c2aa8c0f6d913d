package transport

import "testing"

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
