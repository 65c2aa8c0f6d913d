// Package sketchreset implements the paper's second contribution:
// Count-Sketch-Reset (§IV, Figure 5), a dynamic counting protocol.
//
// Where Sketch-Count stores a bit per (bin, level), Count-Sketch-Reset
// stores a saturating *age counter* N[n][k]:
//
//   - a host that owns index (n, k) — chosen per the standard FM
//     distributions — pins its counter at 0, sourcing the bit;
//   - every other counter is incremented each round and min-merged on
//     gossip, so a counter's value tracks the gossip distance to the
//     nearest live source of that bit;
//   - a bit is considered set iff its counter is at or below a cutoff
//     f(k). Under uniform gossip the maximum counter of a still-sourced
//     bit is bounded with high probability by a linear function of k —
//     the paper derives f(k) = 7 + k/4 experimentally (Figure 6) —
//     *independent of network size*, because bit k has ~n/2^(k+1)
//     sources and propagation time grows with the log of the source
//     fraction, not of n.
//
// When every host sourcing a bit departs, the bit's minimum counter
// starts advancing one per round, crosses the cutoff, and the bit ages
// out: the count estimate decays back to the live population. This is
// what the static sketch cannot do.
//
// Setting NoDecay (cutoff = ∞) reproduces static Sketch-Count behaviour
// on the same code path — Figure 9's "propagation limiting off" line.
package sketchreset

import (
	"fmt"
	"math"
	"slices"

	"dynagg/internal/gossip"
	"dynagg/internal/sketch"
	"dynagg/internal/wire"
	"dynagg/internal/xrand"
)

// Never is the counter sentinel meaning "no source ever heard from":
// the initialization value ∞ of Figure 5. Real ages saturate at
// MaxAge so they can never be confused with Never.
const (
	Never  = wire.CounterNever
	MaxAge = wire.CounterMaxAge
)

// DefaultCutoff is the paper's experimentally derived maximum
// propagation age for bit k under uniform gossip: f(k) = 7 + k/4.
func DefaultCutoff(k int) float64 { return 7 + float64(k)/4 }

// Config configures a Count-Sketch-Reset host. Params and Identifiers
// shape the age matrix and what a host sources; Cutoff, NoDecay and
// Scale are read-side only. They decide how an estimate is read off
// the matrix (a Readout) and never touch aging, merging or peer
// choice, so populations that differ only in them hold the same
// counters round for round.
type Config struct {
	// Params sizes the underlying sketch (bins m × levels L).
	Params sketch.Params
	// Cutoff is f(k); nil selects DefaultCutoff.
	Cutoff func(k int) float64
	// Identifiers is how many identifiers the host registers: 1 to
	// count hosts, the host's value to sum values (§IV-B multiple
	// insertions), or a constant c to sharpen small-network estimates
	// (the trace runs use 100; Estimate divides by Scale below).
	Identifiers int
	// Scale divides the raw estimate; set to Identifiers when using
	// per-host identifier inflation, or 1 for sums. Zero means 1.
	Scale float64
	// NoDecay reads the matrix with cutoff = ∞: counters still age,
	// but every counter other than Never counts as a set bit, which
	// is static Sketch-Count semantics for baseline comparison.
	NoDecay bool
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if c.Identifiers < 0 {
		return fmt.Errorf("sketchreset: negative Identifiers %d", c.Identifiers)
	}
	return nil
}

// prepare validates the configuration (a bad one panics, as in every
// constructor), fills its defaults in place and returns the read side
// both planes evaluate against.
func (c *Config) prepare() Readout {
	if err := c.Validate(); err != nil {
		panic(err)
	}
	if c.Cutoff == nil {
		c.Cutoff = DefaultCutoff
	}
	if c.Scale == 0 {
		c.Scale = 1
	}
	r := Readout{cutoff: make([]float64, c.Params.Levels), scale: c.Scale}
	for k := range r.cutoff {
		if c.NoDecay {
			r.cutoff[k] = math.Inf(1)
		} else {
			r.cutoff[k] = c.Cutoff(k)
		}
	}
	return r
}

// Readout is the read side of a Config: the cutoff table f(k) per level
// (∞ under NoDecay) and the Scale an estimate is divided by. It reads
// an age matrix and never writes one, so one simulation can be read
// through several Readouts, one per cutoff of a sweep.
type Readout struct {
	cutoff []float64
	scale  float64
}

// NewReadout returns cfg's read side, filled in as New fills it.
func NewReadout(cfg Config) Readout { return cfg.prepare() }

// EstimateOf reads live host id's current matrix through r, on either
// backend of a Count-Sketch-Reset engine built with the same Params.
// It has the shape of (*gossip.Engine).EstimateOf, so a metrics hook
// can take either.
func (r Readout) EstimateOf(e *gossip.Engine, id gossip.NodeID) (float64, bool) {
	if !e.Env().Alive(id, e.Round()) {
		return 0, false
	}
	if c, ok := e.Columnar().(*Columnar); ok {
		return r.estimate(c.block(int(id))), true
	}
	return r.estimate(e.Agent(id).(*Node).counters), true
}

// bitSet reports whether a counter of the given age counts as a set
// bit at level k.
func (r Readout) bitSet(age uint8, k int) bool {
	return age != Never && float64(age) <= r.cutoff[k]
}

// estimate derives the bit array of one host's m×L age block (Figure 5
// steps 6-7: bit k set iff its age is at or below f(k)), applies
// Flajolet-Martin's R per bin, and estimates m·2^avg(R)/ϕ, scaled by
// the identifier inflation factor. Node and Columnar both read through
// it, so the two planes cannot disagree.
func (r Readout) estimate(block []uint8) float64 {
	levels := len(r.cutoff)
	bins := len(block) / levels
	var sumR int
	for base := 0; base < len(block); base += levels {
		// Bits beyond the first unset bit may still be set; R only
		// counts the contiguous prefix, exactly as in the bit sketch.
		k := 0
		for k < levels && r.bitSet(block[base+k], k) {
			k++
		}
		sumR += k
	}
	if sumR == 0 {
		return 0
	}
	avgR := float64(sumR) / float64(bins)
	return float64(bins) * math.Exp2(avgR) / sketch.Phi / r.scale
}

// Node is one Count-Sketch-Reset host. Its gossip payload is the full
// counter matrix.
type Node struct {
	id  gossip.NodeID
	cfg Config

	// counters is the m×L age matrix, flattened bin-major.
	counters []uint8
	// owned marks the indices this host sources (pinned to 0).
	owned []int32

	read Readout

	// snap is the reusable snapshot sent by EmitAppend; its Ages
	// buffer is allocated lazily and rewritten every round.
	snap Counters

	// est caches the estimate of the matrix as it stands; every counter
	// write sets stale, and Estimate re-derives at most once per stale
	// period, so a host nobody samples never pays for the derivation.
	est   float64
	stale bool
}

// Counters is the gossiped age-counter payload of EmitAppend: a
// snapshot of the m×L matrix taken at emission time, wrapped in a
// struct so a pointer to it crosses the Envelope.Payload interface
// without boxing a slice header.
type Counters struct {
	Ages []uint8
}

// Detach implements gossip.Detacher: a matrix that owns its memory.
func (c *Counters) Detach() any { return &Counters{Ages: slices.Clone(c.Ages)} }

var (
	_ gossip.Agent         = (*Node)(nil)
	_ gossip.Exchanger     = (*Node)(nil)
	_ gossip.AppendEmitter = (*Node)(nil)
)

// New returns a Count-Sketch-Reset host. Identifier placement is
// deterministic per (host id, identifier index), matching the FM
// distributions.
func New(id gossip.NodeID, cfg Config) *Node {
	read := cfg.prepare()
	p := cfg.Params
	n := &Node{
		id:       id,
		cfg:      cfg,
		counters: make([]uint8, p.Bins*p.Levels),
		owned:    place(nil, int(id), &cfg),
		read:     read,
		stale:    true,
	}
	initBlock(n.counters, n.owned)
	return n
}

// place appends host id's sourced indices to owned: the bin-major
// index of one (bin, level) per identifier, deterministic per (host
// id, identifier index), each index once (a linear dedup over the
// host's own indices).
func place(owned []int32, id int, cfg *Config) []int32 {
	p := cfg.Params
	start := len(owned)
	for j := 0; j < cfg.Identifiers; j++ {
		pos := p.Place((uint64(id)+1)<<20 | uint64(j))
		if idx := int32(pos.Bin*p.Levels + pos.Level); !slices.Contains(owned[start:], idx) {
			owned = append(owned, idx)
		}
	}
	return owned
}

// initBlock sets a host's age block to Figure 5's initial state: every
// counter Never, except the owned ones pinned at zero.
func initBlock(block []uint8, owned []int32) {
	for i := range block {
		block[i] = Never
	}
	pin(block, owned)
}

// pin zeroes the counters a host sources.
func pin(block []uint8, owned []int32) {
	for _, idx := range owned {
		block[idx] = 0
	}
}

// exchange min-merges two hosts' blocks into each other ("the peer can
// also respond by sending its own array") and re-pins both owned sets,
// after which the blocks agree except at owned indices.
func exchange(a, b []uint8, ownedA, ownedB []int32) {
	wire.MinCounters(a, b)
	copy(b, a)
	pin(a, ownedA)
	pin(b, ownedB)
}

// ID returns the host id.
func (n *Node) ID() gossip.NodeID { return n.id }

// Owned returns the number of distinct (bin, level) indices this host
// sources.
func (n *Node) Owned() int { return len(n.owned) }

// CounterAt returns the age counter at (bin, level).
func (n *Node) CounterAt(bin, level int) uint8 {
	return n.counters[bin*n.cfg.Params.Levels+level]
}

// BeginRound implements gossip.Agent: age every counter the host does
// not source (Figure 5 step 2), saturating at MaxAge. Owned counters
// are pinned back to zero afterwards (cheaper than testing ownership
// in the hot loop).
func (n *Node) BeginRound(round int) {
	n.stale = true
	wire.AgeCounters(n.counters)
	pin(n.counters, n.owned)
}

// Emit implements gossip.Agent: EmitAppend onto a fresh slice.
func (n *Node) Emit(round int, rng *xrand.Rand, pick gossip.PeerPicker) []gossip.Envelope {
	return n.EmitAppend(nil, round, rng, pick)
}

// EmitAppend implements gossip.AppendEmitter: the aged counter matrix
// goes to one random peer (Figure 5 step 3; the self-copy is the
// identity under min-merge and is elided), snapshotted into a per-host
// buffer reused across rounds — zero steady-state allocation.
func (n *Node) EmitAppend(dst []gossip.Envelope, round int, rng *xrand.Rand, pick gossip.PeerPicker) []gossip.Envelope {
	peer, ok := pick()
	if !ok {
		return dst
	}
	if n.snap.Ages == nil {
		n.snap.Ages = make([]uint8, len(n.counters))
	}
	copy(n.snap.Ages, n.counters)
	return append(dst, gossip.Envelope{To: peer, Payload: &n.snap})
}

// Receive implements gossip.Agent: element-wise min (Figure 5 step 5).
// Min-merge is order-insensitive and idempotent, so merging on arrival
// is safe under the engine's emit-then-deliver ordering. It takes the
// *Counters of EmitAppend, the wire-form *Packed a socket transport
// delivers and the []uint8 matrix a multi.Bundle carries; any other
// payload, or a matrix of another shape, is ignored (see gossip.Agent).
func (n *Node) Receive(payload any) {
	switch p := payload.(type) {
	case *Packed:
		n.MergeWire(p.rle)
	case *Counters:
		n.minMerge(p.Ages)
	case []uint8:
		n.minMerge(p)
	}
}

func (n *Node) minMerge(other []uint8) {
	if len(other) != len(n.counters) {
		return
	}
	n.stale = true
	wire.MinCounters(n.counters, other)
	pin(n.counters, n.owned)
}

// EndRound implements gossip.Agent. Figure 5 steps 6-7 run on demand,
// in Estimate: merges are applied on arrival, so nothing is left to
// fold here.
func (n *Node) EndRound(round int) {}

// Exchange implements gossip.Exchanger: mutual min-merge.
func (n *Node) Exchange(peer gossip.Exchanger) {
	p := peer.(*Node)
	n.stale, p.stale = true, true
	exchange(n.counters, p.counters, n.owned, p.owned)
}

// Estimate implements gossip.Agent: the estimate of the matrix as it
// stands. A Count-Sketch-Reset host always has one (0 before any bit
// is heard). The call may refresh the cached value, so it needs the
// same exclusion as the host's other methods (the engines read it at a
// round or tick boundary, under the host's lock).
func (n *Node) Estimate() (float64, bool) {
	if n.stale {
		n.est = n.read.estimate(n.counters)
		n.stale = false
	}
	return n.est, true
}

// BitSet reports whether the derived bit at (bin, level) is currently
// considered set (age within cutoff).
func (n *Node) BitSet(bin, level int) bool {
	return n.read.bitSet(n.CounterAt(bin, level), level)
}
