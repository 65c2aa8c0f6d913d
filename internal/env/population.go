// Package env implements the paper's three gossip environments:
// idealized uniform gossip over a fully connected population, spatially
// distributed gossip on a grid with 1/d²-biased multi-hop walks, and
// trace-driven gossip replaying wireless contact traces.
package env

import (
	"fmt"

	"dynagg/internal/gossip"
	"dynagg/internal/xrand"
)

// Population tracks which hosts are currently participating. It is the
// mutable liveness substrate shared by the environments; failure
// schedules flip hosts here. Hosts fail *silently*: nothing in the
// protocol layer is notified.
type Population struct {
	alive []bool
	ids   []gossip.NodeID // live ids in arbitrary order, for O(1) picks
	pos   []int32         // index of id within ids, -1 when dead
}

// NewPopulation returns a population of n hosts, all alive.
func NewPopulation(n int) *Population {
	p := &Population{
		alive: make([]bool, n),
		ids:   make([]gossip.NodeID, n),
		pos:   make([]int32, n),
	}
	for i := 0; i < n; i++ {
		p.alive[i] = true
		p.ids[i] = gossip.NodeID(i)
		p.pos[i] = int32(i)
	}
	return p
}

// Size returns the total population, dead or alive.
func (p *Population) Size() int { return len(p.alive) }

// AliveCount returns the number of live hosts.
func (p *Population) AliveCount() int { return len(p.ids) }

// Alive reports whether the host participates.
func (p *Population) Alive(id gossip.NodeID) bool { return p.alive[id] }

// AliveRange implements gossip.Environment for Uniform, Grid, Mobile
// and TraceEnv: their liveness is the population's, whatever the round.
func (p *Population) AliveRange(lo, hi, round int, dst []bool) { copy(dst[:hi-lo], p.alive[lo:hi]) }

// Fail silently removes a host. Failing a dead host is a no-op.
func (p *Population) Fail(id gossip.NodeID) {
	if !p.alive[id] {
		return
	}
	p.alive[id] = false
	// Swap-remove from the live list.
	i := p.pos[id]
	last := len(p.ids) - 1
	moved := p.ids[last]
	p.ids[i] = moved
	p.pos[moved] = i
	p.ids = p.ids[:last]
	p.pos[id] = -1
}

// Revive returns a host to the population (a join). Reviving a live
// host is a no-op.
func (p *Population) Revive(id gossip.NodeID) {
	if p.alive[id] {
		return
	}
	p.alive[id] = true
	p.pos[id] = int32(len(p.ids))
	p.ids = append(p.ids, id)
}

// AliveIDs returns the live hosts in arbitrary order. The slice is
// shared; callers must not modify it.
func (p *Population) AliveIDs() []gossip.NodeID { return p.ids }

// PickOther draws a uniform live host different from self; ok is false
// when self is the only live host (or none are).
func (p *Population) PickOther(self gossip.NodeID, rng *xrand.Rand) (gossip.NodeID, bool) {
	n := len(p.ids)
	if n == 0 || (n == 1 && p.ids[0] == self) {
		return 0, false
	}
	for {
		c := p.ids[rng.Intn(n)]
		if c != self {
			return c, true
		}
	}
}

// Uniform is the idealized fully connected gossip environment used for
// the 100,000-host experiments: every live host can contact every
// other live host with equal probability.
type Uniform struct {
	*Population
}

// NewUniform returns a uniform environment over n hosts.
func NewUniform(n int) *Uniform {
	return &Uniform{Population: NewPopulation(n)}
}

// Alive implements gossip.Environment.
func (u *Uniform) Alive(id gossip.NodeID, round int) bool { return u.Population.Alive(id) }

// Pick implements gossip.Environment: a uniform live peer.
func (u *Uniform) Pick(id gossip.NodeID, round int, rng *xrand.Rand) (gossip.NodeID, bool) {
	return u.PickOther(id, rng)
}

// Advance implements gossip.Environment; the uniform topology is
// static.
func (u *Uniform) Advance(round int) {}

// Grid is the spatially distributed environment of §IV: hosts sit on a
// W×H torus and reach peers through multi-hop random walks whose
// length d is drawn with P[d] ∝ 1/d², the spatial-gossip distribution
// of Kempe/Kleinberg/Demers that preserves logarithmic convergence.
type Grid struct {
	*Population
	w, h    int
	maxDist int
	distCDF []float64 // cumulative P[d <= k], k from 1..maxDist
}

// NewGrid returns a grid environment of w×h hosts with walk lengths up
// to maxDist (0 means a default of max(w,h)/2).
func NewGrid(w, h, maxDist int) *Grid {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("env: invalid grid %dx%d", w, h))
	}
	if maxDist <= 0 {
		maxDist = max(w, h) / 2
		if maxDist < 1 {
			maxDist = 1
		}
	}
	g := &Grid{
		Population: NewPopulation(w * h),
		w:          w,
		h:          h,
		maxDist:    maxDist,
	}
	// P[d] ∝ 1/d², normalized over 1..maxDist.
	var total float64
	g.distCDF = make([]float64, maxDist)
	for d := 1; d <= maxDist; d++ {
		total += 1 / float64(d*d)
		g.distCDF[d-1] = total
	}
	for i := range g.distCDF {
		g.distCDF[i] /= total
	}
	return g
}

// Width returns the grid width.
func (g *Grid) Width() int { return g.w }

// Height returns the grid height.
func (g *Grid) Height() int { return g.h }

// Alive implements gossip.Environment.
func (g *Grid) Alive(id gossip.NodeID, round int) bool { return g.Population.Alive(id) }

// Advance implements gossip.Environment; the grid is static.
func (g *Grid) Advance(round int) {}

// coord converts a node id to grid coordinates.
func (g *Grid) coord(id gossip.NodeID) (x, y int) {
	return int(id) % g.w, int(id) / g.w
}

// node converts torus coordinates to a node id.
func (g *Grid) node(x, y int) gossip.NodeID {
	x = ((x % g.w) + g.w) % g.w
	y = ((y % g.h) + g.h) % g.h
	return gossip.NodeID(y*g.w + x)
}

// NeighborsOf returns the four torus-adjacent hosts of id (dead or
// alive), for overlay construction.
func (g *Grid) NeighborsOf(id gossip.NodeID) []gossip.NodeID {
	x, y := g.coord(id)
	return []gossip.NodeID{
		g.node(x+1, y), g.node(x-1, y), g.node(x, y+1), g.node(x, y-1),
	}
}

// sampleDistance draws a walk length with P[d] ∝ 1/d².
func (g *Grid) sampleDistance(rng *xrand.Rand) int {
	u := rng.Float64()
	for d, c := range g.distCDF {
		if u <= c {
			return d + 1
		}
	}
	return g.maxDist
}

// Pick implements gossip.Environment: a random walk of 1/d²-sampled
// length over the torus; the endpoint is the peer. A handful of
// retries cover walks that end at self or at a dead host.
func (g *Grid) Pick(id gossip.NodeID, round int, rng *xrand.Rand) (gossip.NodeID, bool) {
	if g.AliveCount() <= 1 {
		return 0, false
	}
	const retries = 8
	for attempt := 0; attempt < retries; attempt++ {
		d := g.sampleDistance(rng)
		x, y := g.coord(id)
		for step := 0; step < d; step++ {
			switch rng.Intn(4) {
			case 0:
				x++
			case 1:
				x--
			case 2:
				y++
			default:
				y--
			}
		}
		peer := g.node(x, y)
		if peer != id && g.Population.Alive(peer) {
			return peer, true
		}
	}
	// Fall back to any live neighbor by walking outward one step at a
	// time; guarantees progress on sparse populations.
	return g.PickOther(id, rng)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
