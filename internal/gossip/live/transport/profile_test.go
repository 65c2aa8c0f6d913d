package transport

import (
	"testing"
	"time"
)

// TestProfilePresets pins the canned WAN presets table-driven: each
// preset is valid, resolvable by name, and WithProfile hands its three
// knobs to the Lossy injector unchanged.
func TestProfilePresets(t *testing.T) {
	cases := []struct {
		profile  Profile
		name     string
		loss     float64
		delay    time.Duration
		jitter   time.Duration
		lossless bool
	}{
		{ProfileLAN, "lan", 0.0001, 200 * time.Microsecond, 100 * time.Microsecond, true},
		{Profile3G, "3g", 0.02, 100 * time.Millisecond, 50 * time.Millisecond, false},
		{ProfileSat, "sat", 0.01, 280 * time.Millisecond, 10 * time.Millisecond, false},
	}
	if got, want := len(Profiles()), len(cases); got != want {
		t.Fatalf("Profiles() lists %d presets, want %d", got, want)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.profile
			if p.Name != tc.name || p.Loss != tc.loss || p.Delay != tc.delay || p.Jitter != tc.jitter {
				t.Errorf("preset = %+v, want {%s %v %v %v}", p, tc.name, tc.loss, tc.delay, tc.jitter)
			}
			if err := p.Validate(); err != nil {
				t.Errorf("Validate() = %v", err)
			}
			got, ok := ProfileByName(tc.name)
			if !ok || got != p {
				t.Errorf("ProfileByName(%q) = %+v, %v", tc.name, got, ok)
			}
			// A link class ordering sanity check: LAN must be far
			// below the WAN presets in both loss and delay.
			if tc.lossless {
				if p.Loss >= Profile3G.Loss || p.Delay >= Profile3G.Delay {
					t.Errorf("LAN preset (%v, %v) not strictly better than 3G (%v, %v)",
						p.Loss, p.Delay, Profile3G.Loss, Profile3G.Delay)
				}
			}
			l, err := NewLossy(NewChannel(2, 4), WithProfile(p), WithLossSeed(7))
			if err != nil {
				t.Fatalf("NewLossy(WithProfile) = %v", err)
			}
			if l.T == nil || l.P != p.Loss || l.Delay != p.Delay || l.Jitter != p.Jitter || l.Seed != 7 {
				t.Errorf("NewLossy(WithProfile) = %+v", l)
			}
			if err := l.Validate(); err != nil {
				t.Errorf("wrapped injector invalid: %v", err)
			}
			if err := l.Close(); err != nil {
				t.Errorf("Close() = %v", err)
			}
		})
	}
	if _, ok := ProfileByName("5g"); ok {
		t.Error("unknown preset name resolved")
	}
	if got := ProfileNames(); len(got) != 3 || got[0] != "lan" || got[1] != "3g" || got[2] != "sat" {
		t.Errorf("ProfileNames() = %v", got)
	}
}

// TestProfileLANDelivers runs real messages through the LAN preset:
// delayed deliveries must all land (Close waits for them), and the
// sent/dropped books must cover every message.
func TestProfileLANDelivers(t *testing.T) {
	const msgs = 64
	inner := NewChannel(2, msgs)
	l, err := NewLossy(inner, WithProfile(ProfileLAN), WithLossSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	accepted := 0
	for i := 0; i < msgs; i++ {
		if l.Send(0, 1, i, i) {
			accepted++
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := 0
	l.Drain(1, func(any) { got++ })
	if got != accepted {
		t.Errorf("delivered %d of %d accepted messages", got, accepted)
	}
	if total := l.Sent() + l.Dropped(); total != msgs {
		t.Errorf("Sent+Dropped = %d, want %d", total, msgs)
	}
}
