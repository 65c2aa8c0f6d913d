// Package health is the failure detector of the live stack: it rides
// the membership heartbeat traffic (Bootstrap.KeepAlive re-announces,
// observed directly at seeds and as relayed freshness ages everywhere
// else — see transport.SpanObserver) and turns per-span last-seen
// times into alive/suspect/dead verdicts plus a membership epoch that
// advances on every state transition.
//
// The suspicion threshold is phi-accrual flavoured: rather than a
// fixed timeout, each span's silence is judged against a smoothed
// estimate of its own heartbeat inter-arrival gap (an EWMA), floored
// at the configured cadence. A span that has always announced slowly —
// a clock-skewed host group ticking at a fraction of everyone else's
// rate, or a churn-stormed member whose announces stretch — raises its
// own bar and stays out of the dead list; a span that heartbeated
// briskly and then went silent crosses DeadFactor× its learned gap
// quickly. Consumers: the supervisor (restart dead members), the
// gateway (degrade instead of lying), and any member that wants to
// know who it has lost.
package health

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"dynagg/internal/gossip"
	"dynagg/internal/gossip/live/transport"
)

// State is a span's liveness verdict.
type State int

// The detector's verdict ladder. A span enters at Alive on its first
// observation; silence promotes it to Suspect and then Dead; any fresh
// heartbeat demotes it straight back to Alive.
const (
	// Alive: heard from within the suspicion threshold.
	Alive State = iota
	// Suspect: silent past SuspectFactor× the smoothed gap — worth
	// watching, not yet worth acting on.
	Suspect
	// Dead: silent past DeadFactor× the smoothed gap — the supervisor's
	// restart trigger and the gateway's degraded condition.
	Dead
)

// String renders the state for logs and status payloads.
func (s State) String() string {
	switch s {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Defaults for Config's zero fields.
const (
	// DefaultHeartbeatEvery matches live.DefaultBootstrapReAnnounce —
	// the keepalive cadence whose re-announces are the heartbeats.
	DefaultHeartbeatEvery = time.Second
	// DefaultSuspectFactor and DefaultDeadFactor scale the smoothed
	// inter-arrival gap into the suspicion and death thresholds.
	DefaultSuspectFactor = 3.0
	DefaultDeadFactor    = 6.0
)

const (
	// alpha is the EWMA weight of the newest inter-arrival gap.
	alpha = 0.25
	// maxGapBeats clamps one observed gap to this many HeartbeatEvery
	// before it enters the EWMA, so a single long outage does not
	// poison the estimate into never suspecting anyone again.
	maxGapBeats = 10
)

// Config tunes a Detector. The zero value works for the default 1s
// keepalive cadence; deployments on a faster cadence set
// HeartbeatEvery to match (see docs/operations.md for the tuning
// runbook).
type Config struct {
	// HeartbeatEvery is the expected heartbeat cadence and the floor
	// under the smoothed gap estimate, so a brand-new span is judged
	// against the configured cadence until it has history. 0 means
	// DefaultHeartbeatEvery.
	HeartbeatEvery time.Duration
	// SuspectFactor promotes a span to Suspect once its silence
	// exceeds SuspectFactor × max(smoothed gap, HeartbeatEvery).
	// 0 means DefaultSuspectFactor.
	SuspectFactor float64
	// DeadFactor likewise gates the Dead verdict; it must exceed
	// SuspectFactor. 0 means DefaultDeadFactor.
	DeadFactor float64
	// Now is the clock (tests inject a virtual one). nil means
	// time.Now.
	Now func() time.Time
}

func (c Config) normalized() Config {
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = DefaultHeartbeatEvery
	}
	if c.SuspectFactor <= 0 {
		c.SuspectFactor = DefaultSuspectFactor
	}
	if c.DeadFactor <= 0 {
		c.DeadFactor = DefaultDeadFactor
	}
	if c.DeadFactor < c.SuspectFactor {
		c.DeadFactor = c.SuspectFactor
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// SpanHealth is one span's verdict in a Snapshot.
type SpanHealth struct {
	// Lo, Hi are the span's host range.
	Lo, Hi gossip.NodeID
	// Addr is the span's last known address.
	Addr string
	// State is the current verdict.
	State State
	// Silence is how long since the span was last heard from.
	Silence time.Duration
	// MeanGap is the smoothed heartbeat inter-arrival estimate
	// (0 until a second observation arrives).
	MeanGap time.Duration
}

// Snapshot is the detector's state at one instant: the membership
// epoch and every observed span's verdict, sorted by Lo.
type Snapshot struct {
	// Epoch counts state transitions since the detector started; a
	// consumer that caches membership can compare epochs instead of
	// diffing span lists.
	Epoch uint64
	// Spans lists every span the detector has ever observed.
	Spans []SpanHealth
}

// Degraded reports whether any span below total (a counted worker
// span, not an observer slot) is Dead.
func (s Snapshot) Degraded(total int) bool {
	for _, sp := range s.Spans {
		if int(sp.Lo) < total && sp.State == Dead {
			return true
		}
	}
	return false
}

// spanState is the detector's per-span record.
type spanState struct {
	lo, hi   gossip.NodeID
	addr     string
	lastSeen time.Time
	meanGap  time.Duration
	state    State
}

// Detector turns span liveness observations into verdicts. Safe for
// concurrent use: Observe is called from transport reader goroutines,
// snapshots from wherever the consumer lives.
type Detector struct {
	cfg Config

	mu    sync.Mutex
	spans map[gossip.NodeID]*spanState
	epoch uint64
}

// New returns a Detector with cfg's zero fields defaulted.
func New(cfg Config) *Detector {
	return &Detector{cfg: cfg.normalized(), spans: make(map[gossip.NodeID]*spanState)}
}

// Attach builds a Detector and installs it as tr's span observer, so
// every direct announce and relayed membership age feeds it. The
// caller owns filtering (a gateway typically only judges spans below
// its worker total — see Snapshot.Degraded).
func Attach(tr *transport.TCP, cfg Config) *Detector {
	d := New(cfg)
	tr.SetSpanObserver(func(lo, hi gossip.NodeID, addr string, age time.Duration) {
		d.Observe(lo, hi, addr, age)
	})
	return d
}

// Observe records one heartbeat for a span: age 0 for a directly
// heard announce, positive for relayed freshness (the heartbeat
// happened age ago at the reporting seed). Observations older than
// what is already known are ignored, so relays can arrive out of
// order without rolling liveness backwards.
func (d *Detector) Observe(lo, hi gossip.NodeID, addr string, age time.Duration) {
	if age < 0 {
		return
	}
	now := d.cfg.Now()
	seen := now.Add(-age)
	d.mu.Lock()
	defer d.mu.Unlock()
	st, ok := d.spans[lo]
	if !ok {
		d.spans[lo] = &spanState{lo: lo, hi: hi, addr: addr, lastSeen: seen, state: Alive}
		d.epoch++
		return
	}
	gap := seen.Sub(st.lastSeen)
	if gap <= 0 {
		return
	}
	gap = min(gap, maxGapBeats*d.cfg.HeartbeatEvery)
	if st.meanGap == 0 {
		st.meanGap = gap
	} else {
		st.meanGap = time.Duration((1-alpha)*float64(st.meanGap) + alpha*float64(gap))
	}
	st.lastSeen = seen
	st.hi = hi
	st.addr = addr
	if st.state != Alive {
		st.state = Alive
		d.epoch++
	}
}

// evaluate re-judges every span against the clock; callers hold mu.
func (d *Detector) evaluate(now time.Time) {
	for _, st := range d.spans {
		silence := now.Sub(st.lastSeen)
		base := st.meanGap
		if base < d.cfg.HeartbeatEvery {
			base = d.cfg.HeartbeatEvery
		}
		var next State
		switch {
		case float64(silence) > d.cfg.DeadFactor*float64(base):
			next = Dead
		case float64(silence) > d.cfg.SuspectFactor*float64(base):
			next = Suspect
		default:
			next = Alive
		}
		if next != st.state {
			st.state = next
			d.epoch++
		}
	}
}

// Snapshot re-evaluates every span against the clock and returns the
// verdicts plus the membership epoch.
func (d *Detector) Snapshot() Snapshot {
	now := d.cfg.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.evaluate(now)
	out := Snapshot{Epoch: d.epoch, Spans: make([]SpanHealth, 0, len(d.spans))}
	for _, st := range d.spans {
		out.Spans = append(out.Spans, SpanHealth{
			Lo: st.lo, Hi: st.hi, Addr: st.addr, State: st.state,
			Silence: now.Sub(st.lastSeen), MeanGap: st.meanGap,
		})
	}
	sort.Slice(out.Spans, func(i, j int) bool { return out.Spans[i].Lo < out.Spans[j].Lo })
	return out
}

// DeadSpans re-evaluates and returns the spans currently judged Dead,
// sorted by Lo.
func (d *Detector) DeadSpans() []SpanHealth {
	snap := d.Snapshot()
	dead := snap.Spans[:0]
	for _, sp := range snap.Spans {
		if sp.State == Dead {
			dead = append(dead, sp)
		}
	}
	return dead
}
