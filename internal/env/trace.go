package env

import (
	"time"

	"dynagg/internal/gossip"
	"dynagg/internal/groups"
	"dynagg/internal/trace"
	"dynagg/internal/xrand"
)

// TraceEnv replays a wireless contact trace: hosts may gossip only
// with devices currently in radio range, one round per gossip
// interval (the paper uses 30 seconds). Ground truth for trace runs is
// per connectivity group, computed over the 10-minute edge union.
type TraceEnv struct {
	*Population
	cursor   *trace.Cursor
	interval time.Duration
	window   time.Duration
}

// NewTraceEnv wraps a trace. interval is the simulated time per gossip
// round; window is the "nearby" edge-union horizon. Zero values get
// the paper's defaults (30 s, 10 min).
func NewTraceEnv(t *trace.Trace, interval, window time.Duration) *TraceEnv {
	if interval <= 0 {
		interval = 30 * time.Second
	}
	if window <= 0 {
		window = groups.DefaultWindowSeconds * time.Second
	}
	return &TraceEnv{
		Population: NewPopulation(t.N),
		cursor:     trace.NewCursor(t),
		interval:   interval,
		window:     window,
	}
}

// Interval returns the simulated time per gossip round.
func (e *TraceEnv) Interval() time.Duration { return e.interval }

// Now returns the current simulated time.
func (e *TraceEnv) Now() time.Duration { return e.cursor.Now() }

// Rounds returns the number of gossip rounds the underlying trace
// spans.
func (e *TraceEnv) Rounds() int {
	return int(e.cursor.TraceDuration() / e.interval)
}

// Advance implements gossip.Environment: move simulated time to the
// round boundary.
func (e *TraceEnv) Advance(round int) {
	e.cursor.AdvanceTo(time.Duration(round) * e.interval)
}

// Alive implements gossip.Environment.
func (e *TraceEnv) Alive(id gossip.NodeID, round int) bool {
	return e.Population.Alive(id)
}

// Pick implements gossip.Environment: a uniform live device currently
// in radio range.
func (e *TraceEnv) Pick(id gossip.NodeID, round int, rng *xrand.Rand) (gossip.NodeID, bool) {
	nbrs := e.cursor.Neighbors(int(id))
	if len(nbrs) == 0 {
		return 0, false
	}
	// Reservoir-pick a live neighbor without allocating a filtered
	// slice: count live first (neighbor lists are tiny).
	live := 0
	for _, b := range nbrs {
		if e.Population.Alive(gossip.NodeID(b)) {
			live++
		}
	}
	if live == 0 {
		return 0, false
	}
	k := rng.Intn(live)
	for _, b := range nbrs {
		if e.Population.Alive(gossip.NodeID(b)) {
			if k == 0 {
				return gossip.NodeID(b), true
			}
			k--
		}
	}
	return 0, false // unreachable
}

// Groups returns the current group assignment over the 10-minute edge
// union, restricted to live devices (edges touching dead devices are
// dropped).
func (e *TraceEnv) Groups() groups.Assignment {
	edges := e.cursor.RecentEdges(e.window)
	filtered := edges[:0]
	for _, ed := range edges {
		if e.Population.Alive(gossip.NodeID(ed[0])) && e.Population.Alive(gossip.NodeID(ed[1])) {
			filtered = append(filtered, ed)
		}
	}
	return groups.Assign(e.Size(), filtered)
}

// Degree returns the current radio-range neighbor count of a device.
func (e *TraceEnv) Degree(id gossip.NodeID) int { return e.cursor.Degree(int(id)) }
