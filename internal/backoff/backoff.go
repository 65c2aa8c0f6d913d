// Package backoff is the one retry/pacing policy of the live stack:
// exponential growth with a cap, optional symmetric jitter, and
// context-aware sleeping. The TCP transport's reconnect schedule, the
// bootstrap announce retry, and the membership keepalive cadence all
// run on it — one tested implementation instead of three ad-hoc
// loops, and one place where jitter breaks the lockstep that turns a
// seed restart into a thundering herd of simultaneous re-announces.
package backoff

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"dynagg/internal/xrand"
)

// Policy declares a backoff schedule. The zero value is invalid
// (Min must be positive); the other fields default sensibly so the
// common cases read as one or two assignments:
//
//	Policy{Min: 20 * time.Millisecond, Max: 2 * time.Second}  // doubling reconnect
//	Policy{Min: time.Second, Factor: 1, Jitter: 0.25}         // jittered heartbeat cadence
type Policy struct {
	// Min is the first delay. Required.
	Min time.Duration
	// Max caps the grown delay (before jitter). 0 means Min — a
	// constant cadence.
	Max time.Duration
	// Factor is the per-attempt growth multiplier. 0 means 2
	// (doubling); 1 is a constant cadence.
	Factor float64
	// Jitter spreads each delay uniformly over [d·(1−J), d·(1+J)].
	// 0 is deterministic; values are clamped to [0, 1].
	Jitter float64
}

// Validate reports whether the policy is usable.
func (p Policy) Validate() error {
	if p.Min <= 0 {
		return fmt.Errorf("backoff: Min must be positive, got %v", p.Min)
	}
	if p.Max != 0 && p.Max < p.Min {
		return fmt.Errorf("backoff: Max %v below Min %v", p.Max, p.Min)
	}
	if p.Factor < 0 || (p.Factor > 0 && p.Factor < 1) {
		return fmt.Errorf("backoff: Factor must be 0 (default 2) or >= 1, got %v", p.Factor)
	}
	if p.Jitter < 0 || p.Jitter > 1 {
		return fmt.Errorf("backoff: Jitter %v outside [0,1]", p.Jitter)
	}
	return nil
}

// Delay returns the un-jittered delay for the given attempt (0 is the
// first): min(Min·Factor^attempt, Max). It is pure — the jittered
// stateful walk lives on Backoff.
func (p Policy) Delay(attempt int) time.Duration {
	min, max, factor := p.normalize()
	d := float64(min)
	limit := float64(max)
	for i := 0; i < attempt; i++ {
		d *= factor
		if d >= limit {
			return max
		}
	}
	return time.Duration(d)
}

func (p Policy) normalize() (min, max time.Duration, factor float64) {
	min = p.Min
	max = p.Max
	if max == 0 {
		max = min
	}
	factor = p.Factor
	if factor == 0 {
		factor = 2
	}
	return min, max, factor
}

// clampJitter bounds the jitter fraction to [0, 1].
func (p Policy) clampJitter() float64 {
	switch {
	case p.Jitter < 0:
		return 0
	case p.Jitter > 1:
		return 1
	}
	return p.Jitter
}

// seedCounter differentiates generators created without an explicit
// seed, so that concurrent Backoffs inside one process do not jitter
// in lockstep either.
var seedCounter atomic.Uint64

// Backoff is the stateful walk over a Policy: each Next advances the
// attempt counter and returns the next (jittered) delay, Reset rewinds
// to the first. Not safe for concurrent use; each retry loop owns one.
type Backoff struct {
	p       Policy
	attempt int
	rng     *xrand.Rand
}

// New returns a Backoff whose jitter stream is seeded from the clock
// and a process-wide counter — distinct across processes and across
// instances, which is the point of jitter.
func New(p Policy) *Backoff {
	return NewSeeded(p, uint64(time.Now().UnixNano())+seedCounter.Add(1)<<32)
}

// NewSeeded returns a Backoff with a deterministic jitter stream, for
// tests and for deployments that want reproducible schedules.
func NewSeeded(p Policy, seed uint64) *Backoff {
	return &Backoff{p: p, rng: xrand.New(seed)}
}

// Next returns the delay to wait before the next attempt and advances
// the schedule.
func (b *Backoff) Next() time.Duration {
	d := b.p.Delay(b.attempt)
	b.attempt++
	if j := b.p.clampJitter(); j > 0 {
		// Symmetric: uniform over [d·(1−j), d·(1+j)].
		f := 1 + j*(2*b.rng.Float64()-1)
		d = time.Duration(float64(d) * f)
	}
	if d < time.Microsecond {
		d = time.Microsecond
	}
	return d
}

// Reset rewinds the schedule to the first attempt, for retry loops
// that succeed and later fail again (a reconnect that held for a
// while should not resume at the cap).
func (b *Backoff) Reset() { b.attempt = 0 }

// Sleep waits out the next delay or returns early with the context's
// error.
func (b *Backoff) Sleep(ctx context.Context) error {
	t := time.NewTimer(b.Next())
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
