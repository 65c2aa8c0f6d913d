package live

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"dynagg/internal/backoff"
	"dynagg/internal/gossip/live/transport"
)

// Bootstrap is the membership configuration for a multi-process Span
// deployment over TCP: instead of a parent process shuttling ephemeral
// addresses between children (the handshake a UDP Span deployment
// needs before SetGroupAddr), every process is told the same static
// seed list, then announces its own [Lo,Hi) span and listen address to
// each seed and retries until the full population is mapped. Seeds
// accumulate the announcements, so any process that can reach one live
// seed learns everyone — and a process that starts before its seed
// simply retries into the void until the seed is up.
type Bootstrap struct {
	// Seeds are the TCP addresses to announce to. Every process of the
	// deployment should use the same list; a seed process lists its own
	// address (announcing to yourself is a no-op that still returns the
	// table). At least one seed is required.
	Seeds []string
	// Span is this process's host range, and must equal Config.Span.
	Span Span
	// Total is the full population size the bootstrap waits to see
	// mapped. It may be smaller than the environment size: spans at or
	// above Total are observer slots (see Span), which announce
	// themselves but are not waited for — an observer can join, leave,
	// and rejoin mid-epoch without gating anyone's bootstrap.
	Total int
	// Replace announces with restart semantics: if a prior incarnation
	// of this span is still registered at a stale address, the seeds
	// update to this process's address instead of reporting
	// ErrSpanConflict, and push the correction to the membership. Set
	// it for processes that legitimately restart under one span — an
	// observer gateway — and leave it off where two processes claiming
	// one span is a deployment bug to be caught.
	Replace bool
	// Retry paces the announce loop (0 means 250ms).
	Retry time.Duration
	// Timeout bounds the whole bootstrap (0 means 30s). On expiry Run
	// reports the groups seen so far, naming what is missing.
	Timeout time.Duration
	// ReAnnounce paces the post-bootstrap keepalive: once coverage
	// completes, the engine keeps re-announcing this span to every
	// seed at this cadence so a seed that crashes and restarts with an
	// empty membership table rebuilds it from the survivors'
	// re-registrations (see KeepAlive). 0 means 1s; negative disables
	// the keepalive.
	ReAnnounce time.Duration
}

// DefaultBootstrapRetry, DefaultBootstrapTimeout, and
// DefaultBootstrapReAnnounce fill the zero fields of Bootstrap.
const (
	DefaultBootstrapRetry      = 250 * time.Millisecond
	DefaultBootstrapTimeout    = 30 * time.Second
	DefaultBootstrapReAnnounce = 1 * time.Second
)

// Validate reports whether the bootstrap configuration is usable.
func (b *Bootstrap) Validate() error {
	if len(b.Seeds) == 0 {
		return fmt.Errorf("live: Bootstrap.Seeds is empty")
	}
	for i, s := range b.Seeds {
		if strings.TrimSpace(s) == "" {
			return fmt.Errorf("live: Bootstrap.Seeds[%d] is empty", i)
		}
	}
	if b.Span == (Span{}) {
		return fmt.Errorf("live: Bootstrap.Span is zero; bootstrap is for partial (Span) engines")
	}
	if b.Span.Lo < 0 || b.Span.Lo >= b.Span.Hi {
		return fmt.Errorf("live: Bootstrap.Span [%d,%d) is empty", b.Span.Lo, b.Span.Hi)
	}
	// A span is either inside the counted population or entirely above
	// it (an observer slot); straddling Total is a configuration error.
	if int(b.Span.Lo) < b.Total && b.Total < int(b.Span.Hi) {
		return fmt.Errorf("live: Bootstrap.Total %d splits span [%d,%d)", b.Total, b.Span.Lo, b.Span.Hi)
	}
	if b.Retry < 0 || b.Timeout < 0 {
		return fmt.Errorf("live: Bootstrap.Retry and Timeout must be >= 0")
	}
	return nil
}

// Run announces this process's span to every seed and blocks until the
// transport's membership table covers [0, Total), the context is
// cancelled, or the timeout expires. It is idempotent: re-running on a
// complete table returns immediately.
//
// A span conflict (another process owns our range, or overlapping
// registrations) is fatal and returned immediately; every other
// announce failure — seed not up yet, connection refused, timeout — is
// retried, which is exactly what a late-starting seed looks like.
func (b *Bootstrap) Run(ctx context.Context, tr *transport.TCP) error {
	retry := b.Retry
	if retry <= 0 {
		retry = DefaultBootstrapRetry
	}
	timeout := b.Timeout
	if timeout <= 0 {
		timeout = DefaultBootstrapTimeout
	}
	self := b.selfAddr(tr)
	if self == "" {
		return fmt.Errorf("live: bootstrap span [%d,%d) is not a listening group of the transport",
			b.Span.Lo, b.Span.Hi)
	}
	deadline := time.Now().Add(timeout)
	var lastErr error
	// The first announce fires immediately; the rounds after it back
	// off exponentially (capped at 4× the configured retry, ±25%
	// jitter). A seed that is not up yet gets a few brisk retries, then
	// a steady desynchronized trickle instead of a metronome of
	// connection-refused churn — and when a whole cluster restarts at
	// once, the jitter spreads the announce bursts apart.
	pace := backoff.New(backoff.Policy{Min: retry, Max: 4 * retry, Jitter: 0.25})
	var nextAnnounce time.Time // zero: announce immediately
	for {
		if !time.Now().Before(nextAnnounce) {
			for _, seed := range b.Seeds {
				if seed == self {
					continue // our own listener already knows us
				}
				err := b.announce(tr, seed, self)
				if errors.Is(err, transport.ErrSpanConflict) {
					return fmt.Errorf("live: bootstrap: %w", err)
				}
				if err != nil {
					lastErr = err
				}
			}
			nextAnnounce = time.Now().Add(pace.Next())
		}
		if tr.Covers(b.Total) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("live: bootstrap timed out after %v with %s (last announce error: %v)",
				timeout, describeCoverage(tr, b.Total), lastErr)
		}
		// Coverage can complete between announces — a seed process never
		// announces at all; its table fills as the joiners' announces
		// arrive — so poll it much finer than the announce retry.
		// Otherwise a seed sits out up to a whole retry period after the
		// last joiner registers, and in a paced deployment that skew is
		// dozens of ticks the others spend gossiping without it.
		wait := retry
		if poll := 5 * time.Millisecond; poll < wait {
			wait = poll
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(wait):
		}
	}
}

// reannounceEvery resolves the keepalive cadence: the default for 0,
// disabled (0 result) for negative values.
func (b *Bootstrap) reannounceEvery() time.Duration {
	switch {
	case b.ReAnnounce < 0:
		return 0
	case b.ReAnnounce == 0:
		return DefaultBootstrapReAnnounce
	default:
		return b.ReAnnounce
	}
}

// KeepAlive re-announces this process's span to every seed at the
// ReAnnounce cadence until the context is cancelled. Bootstrap
// coverage is a one-shot handshake: without a keepalive, a seed that
// restarts mid-epoch comes back with an empty membership table and —
// every joiner having long since finished announcing — no way to ever
// rebuild it, leaving its own traffic aimed at nobody. The periodic
// re-announce is the repair channel: survivors keep re-registering
// (an idempotent no-op at a healthy seed), the restarted seed
// re-learns their spans, and its membership pushes propagate any
// address corrections back out. Announce errors are ignored — an
// unreachable seed is exactly what the next cycle exists to retry.
func (b *Bootstrap) KeepAlive(ctx context.Context, tr *transport.TCP) {
	every := b.reannounceEvery()
	if every <= 0 {
		return
	}
	self := b.selfAddr(tr)
	if self == "" {
		return
	}
	// A jittered cadence (±25% around ReAnnounce), not a fixed ticker:
	// in a deployment whose members all started together — the common
	// case, they were launched by one script or one supervisor — fixed
	// tickers stay phase-locked forever and every keepalive cycle slams
	// all N announces into the seeds in the same instant. The jitter
	// decorrelates the herds within a few cycles while keeping the mean
	// cadence (and so the failure detector's expected heartbeat rate)
	// at ReAnnounce.
	pace := backoff.New(backoff.Policy{Min: every, Factor: 1, Jitter: 0.25})
	for {
		if err := pace.Sleep(ctx); err != nil {
			return
		}
		for _, seed := range b.Seeds {
			if seed == self {
				continue
			}
			_ = b.announce(tr, seed, self)
		}
	}
}

// selfAddr is this span's listen address in the transport's table, ""
// if the span is not one of its groups.
func (b *Bootstrap) selfAddr(tr *transport.TCP) string {
	for _, g := range tr.Groups() {
		if g.Lo == b.Span.Lo && g.Hi == b.Span.Hi {
			return g.Addr
		}
	}
	return ""
}

// announce announces this span to one seed, with restart semantics
// when Replace is set.
func (b *Bootstrap) announce(tr *transport.TCP, seed, self string) error {
	if b.Replace {
		return tr.AnnounceReplace(seed, b.Span.Lo, b.Span.Hi, self)
	}
	return tr.Announce(seed, b.Span.Lo, b.Span.Hi, self)
}

// describeCoverage renders the known membership for timeout errors.
func describeCoverage(tr *transport.TCP, total int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "groups covering ")
	groups := tr.Groups()
	for i, g := range groups {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "[%d,%d)", g.Lo, g.Hi)
		if g.Addr == "" {
			sb.WriteString(" (no addr)")
		}
	}
	fmt.Fprintf(&sb, " of [0,%d)", total)
	return sb.String()
}
