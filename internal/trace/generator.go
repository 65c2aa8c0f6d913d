// Synthetic contact-trace generation: the substitution for the
// CRAWDAD cambridge/haggle datasets (see the package doc in trace.go).
// The generator simulates people carrying wireless devices between
// places — homes, shared gathering spots, conference sessions — and
// records the link up/down events that co-location produces. The
// resulting traces have the properties that drive the paper's Figure
// 11: small transient groups most of the time, a day/night rhythm, and
// (for the conference preset) periods where most devices gather.

package trace

import (
	"fmt"
	"time"

	"dynagg/internal/xrand"
)

// GenParams configures the synthetic mobility model.
type GenParams struct {
	Name string
	// N is the device count.
	N int
	// Days is the trace length in 24-hour days.
	Days int
	// Step is the simulation tick; links change only at tick
	// boundaries. The paper's gossip interval is 30 s, so the default
	// matches it.
	Step time.Duration
	// Places is the number of shared gathering places.
	Places int
	// Communities partitions devices into social groups that prefer
	// the same places.
	Communities int
	// GoOutProb is the per-tick probability that a device at home
	// leaves for a place during waking hours.
	GoOutProb float64
	// MoveProb is the per-tick probability that a device at a place
	// moves to another place.
	MoveProb float64
	// ReturnProb is the per-tick probability that a device at a place
	// heads home.
	ReturnProb float64
	// EncounterProb is the per-tick probability of a one-tick chance
	// contact between a random device pair (corridor passings).
	EncounterProb float64
	// Conference switches to a session-driven schedule: during session
	// hours most devices co-locate in a single hall, between sessions
	// they scatter into small break groups.
	Conference bool
	// Seed drives the generator; equal seeds give equal traces.
	Seed uint64
}

// Dataset1 approximates the first Haggle daily-life trace: 9 devices
// over ~4 days.
func Dataset1() GenParams {
	return GenParams{
		Name: "synthetic-haggle-1", N: 9, Days: 4, Step: 30 * time.Second,
		Places: 3, Communities: 2,
		GoOutProb: 0.01, MoveProb: 0.002, ReturnProb: 0.003,
		EncounterProb: 0.02, Seed: 1,
	}
}

// Dataset2 approximates the second daily-life trace: 12 devices over
// ~5 days.
func Dataset2() GenParams {
	return GenParams{
		Name: "synthetic-haggle-2", N: 12, Days: 5, Step: 30 * time.Second,
		Places: 4, Communities: 3,
		GoOutProb: 0.01, MoveProb: 0.002, ReturnProb: 0.003,
		EncounterProb: 0.02, Seed: 2,
	}
}

// Dataset3 approximates the conference trace: 41 devices over ~3 days
// with session gatherings.
func Dataset3() GenParams {
	return GenParams{
		Name: "synthetic-haggle-3", N: 41, Days: 3, Step: 30 * time.Second,
		Places: 6, Communities: 5,
		GoOutProb: 0.01, MoveProb: 0.004, ReturnProb: 0.006,
		EncounterProb: 0.05, Conference: true, Seed: 3,
	}
}

// location encoding: home(i) = -1-i is unique per device; values >= 0
// are shared places.
const atHome = -1

// Generate produces a synthetic contact trace. The output always
// passes Validate.
func Generate(p GenParams) *Trace {
	if p.N <= 1 {
		panic(fmt.Sprintf("trace: Generate needs at least 2 devices, got %d", p.N))
	}
	if p.Step <= 0 {
		p.Step = 30 * time.Second
	}
	if p.Places <= 0 {
		p.Places = 3
	}
	if p.Communities <= 0 {
		p.Communities = 1
	}
	rng := xrand.New(p.Seed)
	dur := time.Duration(p.Days) * 24 * time.Hour
	steps := int(dur / p.Step)

	// Per-device state: current location and home community.
	loc := make([]int, p.N)
	community := make([]int, p.N)
	for i := range loc {
		loc[i] = atHome - i // distinct homes: no contacts at night
		community[i] = i % p.Communities
	}
	// Each community prefers one "anchor" place.
	anchor := make([]int, p.Communities)
	for c := range anchor {
		anchor[c] = c % p.Places
	}

	t := &Trace{Name: p.Name, N: p.N, Duration: dur}
	linked := make(map[[2]int]bool)    // current link state
	encounters := make(map[[2]int]int) // chance links -> expiry step

	for s := 0; s <= steps; s++ {
		now := time.Duration(s) * p.Step
		hour := int(now/time.Hour) % 24
		awake := hour >= 8 && hour < 23
		session := p.Conference && ((hour >= 9 && hour < 12) || (hour >= 14 && hour < 17))
		// Daily-life traces show a midday gathering (shared office,
		// lunch): devices drift toward a common place.
		meeting := !p.Conference && hour >= 12 && hour < 14

		// Move devices.
		for i := 0; i < p.N; i++ {
			switch {
			case meeting:
				if loc[i] != 0 && rng.Prob(0.03) {
					loc[i] = 0
				}
			case session:
				// Most devices converge on the session hall (place 0);
				// stragglers wander the break areas.
				if loc[i] != 0 && rng.Prob(0.05) {
					if rng.Prob(0.85) {
						loc[i] = 0
					} else {
						loc[i] = 1 + rng.Intn(p.Places-1)
					}
				}
			case !awake:
				// Night: drift home.
				if loc[i] >= 0 && rng.Prob(0.05) {
					loc[i] = atHome - i
				}
			case loc[i] < 0:
				// At home during the day: maybe go out, preferring the
				// community anchor.
				if rng.Prob(p.GoOutProb) {
					if rng.Prob(0.7) {
						loc[i] = anchor[community[i]]
					} else {
						loc[i] = rng.Intn(p.Places)
					}
				}
			default:
				// Out: maybe move, maybe go home.
				if rng.Prob(p.ReturnProb) {
					loc[i] = atHome - i
				} else if rng.Prob(p.MoveProb) {
					loc[i] = rng.Intn(p.Places)
				}
			}
		}

		// Chance encounters: short-lived random pair contacts.
		if rng.Prob(p.EncounterProb) {
			a := rng.Intn(p.N)
			b := rng.Intn(p.N)
			if a != b {
				if a > b {
					a, b = b, a
				}
				encounters[[2]int{a, b}] = s + 2 // lasts ~2 ticks
			}
		}
		for key, expiry := range encounters {
			if s >= expiry {
				delete(encounters, key)
			}
		}

		// Desired link set: co-located pairs plus active encounters.
		want := make(map[[2]int]bool, len(linked))
		for a := 0; a < p.N; a++ {
			if loc[a] < 0 {
				continue
			}
			for b := a + 1; b < p.N; b++ {
				if loc[b] == loc[a] {
					want[[2]int{a, b}] = true
				}
			}
		}
		for key := range encounters {
			want[key] = true
		}

		// Emit diffs. Iterate pairs in canonical order for determinism.
		for a := 0; a < p.N; a++ {
			for b := a + 1; b < p.N; b++ {
				key := [2]int{a, b}
				if want[key] && !linked[key] {
					t.Events = append(t.Events, Event{At: now, A: a, B: b, Up: true})
					linked[key] = true
				} else if !want[key] && linked[key] {
					t.Events = append(t.Events, Event{At: now, A: a, B: b, Up: false})
					delete(linked, key)
				}
			}
		}
	}
	return t
}
