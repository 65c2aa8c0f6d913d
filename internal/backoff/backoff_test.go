package backoff

import (
	"context"
	"testing"
	"time"
)

func TestPolicyDelayGrowsAndCaps(t *testing.T) {
	p := Policy{Min: 20 * time.Millisecond, Max: 2 * time.Second}
	want := []time.Duration{
		20 * time.Millisecond,
		40 * time.Millisecond,
		80 * time.Millisecond,
		160 * time.Millisecond,
		320 * time.Millisecond,
		640 * time.Millisecond,
		1280 * time.Millisecond,
		2 * time.Second,
		2 * time.Second,
	}
	for attempt, w := range want {
		if got := p.Delay(attempt); got != w {
			t.Errorf("Delay(%d) = %v, want %v", attempt, got, w)
		}
	}
}

func TestPolicyConstantCadence(t *testing.T) {
	p := Policy{Min: time.Second, Factor: 1}
	for attempt := 0; attempt < 5; attempt++ {
		if got := p.Delay(attempt); got != time.Second {
			t.Errorf("Delay(%d) = %v, want 1s", attempt, got)
		}
	}
}

func TestPolicyValidate(t *testing.T) {
	cases := []struct {
		name string
		p    Policy
		ok   bool
	}{
		{"zero", Policy{}, false},
		{"min-only", Policy{Min: time.Millisecond}, true},
		{"max-below-min", Policy{Min: time.Second, Max: time.Millisecond}, false},
		{"fractional-factor", Policy{Min: time.Second, Factor: 0.5}, false},
		{"constant", Policy{Min: time.Second, Factor: 1}, true},
		{"jitter-over-one", Policy{Min: time.Second, Jitter: 1.5}, false},
		{"negative-jitter", Policy{Min: time.Second, Jitter: -0.1}, false},
		{"full", Policy{Min: time.Millisecond, Max: time.Second, Factor: 1.5, Jitter: 0.25}, true},
	}
	for _, c := range cases {
		err := c.p.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestJitterStaysInBand(t *testing.T) {
	p := Policy{Min: 100 * time.Millisecond, Factor: 1, Jitter: 0.25}
	b := NewSeeded(p, 7)
	lo := time.Duration(float64(p.Min) * 0.75)
	hi := time.Duration(float64(p.Min) * 1.25)
	var min, max time.Duration = hi, lo
	for i := 0; i < 1000; i++ {
		d := b.Next()
		if d < lo || d > hi {
			t.Fatalf("jittered delay %v outside [%v, %v]", d, lo, hi)
		}
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	// The draws must actually spread: over 1000 samples the observed
	// band should cover most of the configured one.
	if spread := max - min; spread < (hi-lo)/2 {
		t.Errorf("jitter spread %v too narrow for band %v", spread, hi-lo)
	}
}

func TestJitterSeedsDiverge(t *testing.T) {
	p := Policy{Min: time.Second, Factor: 1, Jitter: 0.5}
	a, b := NewSeeded(p, 1), NewSeeded(p, 2)
	same := 0
	for i := 0; i < 32; i++ {
		if a.Next() == b.Next() {
			same++
		}
	}
	if same == 32 {
		t.Fatal("two differently seeded backoffs produced identical schedules")
	}
}

func TestResetRewindsSchedule(t *testing.T) {
	b := NewSeeded(Policy{Min: 10 * time.Millisecond, Max: time.Second}, 3)
	first := b.Next()
	for i := 0; i < 5; i++ {
		b.Next()
	}
	if b.attempt != 6 {
		t.Fatalf("attempt = %d, want 6", b.attempt)
	}
	b.Reset()
	if b.attempt != 0 {
		t.Fatalf("attempt after Reset = %d, want 0", b.attempt)
	}
	// Jitter is 0, so the restarted schedule reproduces the first delay.
	if got := b.Next(); got != first {
		t.Errorf("first delay after Reset = %v, want %v", got, first)
	}
}

func TestSleepHonorsContext(t *testing.T) {
	b := New(Policy{Min: time.Hour})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- b.Sleep(ctx) }()
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("Sleep returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Sleep did not return after cancel")
	}
}

func TestSleepCompletes(t *testing.T) {
	b := New(Policy{Min: time.Millisecond})
	if err := b.Sleep(context.Background()); err != nil {
		t.Fatalf("Sleep = %v, want nil", err)
	}
}

func TestNextNeverNonPositive(t *testing.T) {
	// Full jitter on a tiny Min can round toward zero; the floor keeps
	// retry loops from spinning.
	b := NewSeeded(Policy{Min: 1, Factor: 1, Jitter: 1}, 11)
	for i := 0; i < 100; i++ {
		if d := b.Next(); d <= 0 {
			t.Fatalf("Next() = %v, want > 0", d)
		}
	}
}
