package transport

import (
	"fmt"
	"time"
)

// Profile is a canned WAN condition for the Lossy injector — loss
// probability plus one-way delay with uniform jitter, the same knobs
// netem exposes — so experiments can cite "3G-like" or "sat-link"
// conditions instead of raw probabilities.
type Profile struct {
	// Name is the CLI-facing identifier ("lan", "3g", "sat").
	Name string
	// Loss is the per-message drop probability in [0, 1].
	Loss float64
	// Delay is the one-way delivery delay; Jitter adds a uniform
	// random extra in [0, Jitter).
	Delay  time.Duration
	Jitter time.Duration
}

// The canned presets. Numbers are the commonly cited netem-style
// figures for each link class: a switched LAN is sub-millisecond and
// essentially lossless; a loaded 3G cell adds ~100 ms one-way with
// heavy jitter and a few percent loss; a GEO satellite hop is
// dominated by ~280 ms of propagation with modest jitter.
var (
	ProfileLAN = Profile{Name: "lan", Loss: 0.0001, Delay: 200 * time.Microsecond, Jitter: 100 * time.Microsecond}
	Profile3G  = Profile{Name: "3g", Loss: 0.02, Delay: 100 * time.Millisecond, Jitter: 50 * time.Millisecond}
	ProfileSat = Profile{Name: "sat", Loss: 0.01, Delay: 280 * time.Millisecond, Jitter: 10 * time.Millisecond}
)

// Profiles returns the canned presets, in documentation order.
func Profiles() []Profile {
	return []Profile{ProfileLAN, Profile3G, ProfileSat}
}

// ProfileByName resolves a preset by its Name; ok is false for unknown
// names.
func ProfileByName(name string) (Profile, bool) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// ProfileNames returns the valid -wan preset names, for CLI help and
// error text.
func ProfileNames() []string {
	ps := Profiles()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return names
}

// Validate reports whether the profile is usable.
func (p Profile) Validate() error {
	if p.Loss < 0 || p.Loss > 1 {
		return fmt.Errorf("transport: profile %q Loss %v outside [0,1]", p.Name, p.Loss)
	}
	if p.Delay < 0 || p.Jitter < 0 {
		return fmt.Errorf("transport: profile %q has negative delay/jitter", p.Name)
	}
	return nil
}
