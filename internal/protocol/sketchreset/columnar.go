package sketchreset

import (
	"slices"

	"dynagg/internal/gossip"
	"dynagg/internal/wire"
)

// Columnar is Count-Sketch-Reset over a whole population: every
// host's m×L age matrix lives in ONE flat []uint8 block (host-major,
// bin-major within a host) instead of one heap slice per host, and the
// round phases run as flat loops over it (gossip.ColumnarAgent),
// calling the placement, pinning and exchange helpers Node calls.
// Gossip messages carry no payload at all on the columnar plane —
// Deliver min-merges the emitter's start-of-round block
// (double-buffered in shadow) into the destination's block, which is
// exactly what the classic path's snapshot payloads did, one
// cache-hostile allocation at a time.
//
// Push/pull is supported through gossip.ColExchanger: each pair
// min-merges the two live blocks into each other and re-pins both
// ends' owned indices, exactly Node.Exchange.
//
// Byte-identical to a population of *Node agents on the classic path:
// identifier placement, aging, cutoffs, and estimates all match.
type Columnar struct {
	cfg    Config
	stride int // counters per host = Bins*Levels

	// counters is the population age block; host i's matrix is
	// counters[i*stride : (i+1)*stride].
	counters []uint8
	// shadow double-buffers the post-age state each round so merges
	// read every emitter's start-of-round matrix regardless of
	// delivery order.
	shadow []uint8

	// owned is the flattened list of indices each host sources, with
	// host i's span at owned[ownedOff[i]:ownedOff[i+1]] (indices are
	// host-relative).
	owned    []int32
	ownedOff []int32

	read Readout
	est  []float64
}

var _ gossip.ColExchanger = (*Columnar)(nil)

// NewColumnar returns the columnar population of n Count-Sketch-Reset
// hosts, all sharing cfg. Identifier placement matches New exactly:
// deterministic per (host id, identifier index).
func NewColumnar(n int, cfg Config) *Columnar {
	read := cfg.prepare()
	p := cfg.Params
	stride := p.Bins * p.Levels
	c := &Columnar{
		cfg:      cfg,
		stride:   stride,
		counters: make([]uint8, n*stride),
		shadow:   make([]uint8, n*stride),
		read:     read,
		ownedOff: make([]int32, n+1),
		est:      make([]float64, n),
	}
	for id := 0; id < n; id++ {
		c.owned = place(c.owned, id, &cfg)
		c.ownedOff[id+1] = int32(len(c.owned))
		initBlock(c.block(id), c.ownedOf(id))
		c.refreshEstimate(id)
	}
	return c
}

// Len implements gossip.ColumnarAgent.
func (c *Columnar) Len() int { return len(c.est) }

// Owned returns the number of distinct (bin, level) indices host id
// sources.
func (c *Columnar) Owned(id gossip.NodeID) int { return len(c.ownedOf(int(id))) }

// block is host i's age matrix.
func (c *Columnar) block(i int) []uint8 { return c.counters[i*c.stride : (i+1)*c.stride] }

// snapshot is host i's start-of-round matrix in the shadow block.
func (c *Columnar) snapshot(i int) []uint8 { return c.shadow[i*c.stride : (i+1)*c.stride] }

// ownedOf is the list of indices host i sources.
func (c *Columnar) ownedOf(i int) []int32 { return c.owned[c.ownedOff[i]:c.ownedOff[i+1]] }

// CounterAt returns host id's age counter at (bin, level).
func (c *Columnar) CounterAt(id gossip.NodeID, bin, level int) uint8 {
	return c.counters[int(id)*c.stride+bin*c.cfg.Params.Levels+level]
}

// BeginRange implements gossip.ColumnarAgent: age every counter each
// live host does not source (Figure 5 step 2), pinning owned indices
// back to zero.
func (c *Columnar) BeginRange(rc *gossip.ColRound, lo, hi int) {
	for _, id := range rc.Live(lo, hi) {
		block := c.block(int(id))
		wire.AgeCounters(block)
		pin(block, c.ownedOf(int(id)))
	}
}

// EmitRange implements gossip.ColumnarAgent: snapshot each live
// host's aged matrix into the shadow block (the columnar form of the
// classic path's per-message snapshot payload), then address one
// payload-free message to a random peer. Isolated hosts emit nothing,
// as in Node.Emit.
func (c *Columnar) EmitRange(rc *gossip.ColRound, lo, hi int) {
	live := rc.Live(lo, hi)
	out := slices.Grow(rc.Out, len(live)) // one message per live host at most
	for _, id := range live {
		peer, ok := rc.Pick(id)
		if !ok {
			continue
		}
		copy(c.snapshot(int(id)), c.block(int(id)))
		out = append(out, gossip.ColMsg{To: peer, From: id})
	}
	rc.Out = out
}

// Deliver implements gossip.ColumnarAgent: element-wise min of the
// emitter's shadow block into the destination's live block (Figure 5
// step 5). The destination's owned indices were pinned to zero in
// BeginRange and a min can never raise them, so no re-pin is needed —
// the result is bit-for-bit what Node.minMerge produces.
func (c *Columnar) Deliver(rc *gossip.ColRound, msgs []gossip.ColMsg) {
	for _, m := range msgs {
		if !rc.Alive[m.To] {
			continue
		}
		wire.MinCounters(c.block(int(m.To)), c.snapshot(int(m.From)))
	}
}

// ExchangePairs implements gossip.ColExchanger: mutual min-merge of
// the two ends' live matrices with both owned sets re-pinned to zero
// afterwards — exactly Node.Exchange, over flat blocks.
func (c *Columnar) ExchangePairs(rc *gossip.ColRound, pairs []gossip.Pair) {
	for _, pr := range pairs {
		a, b := int(pr.A), int(pr.B)
		exchange(c.block(a), c.block(b), c.ownedOf(a), c.ownedOf(b))
	}
}

// EndRange implements gossip.ColumnarAgent (Figure 5 steps 6-7).
func (c *Columnar) EndRange(rc *gossip.ColRound, lo, hi int) {
	for _, id := range rc.Live(lo, hi) {
		c.refreshEstimate(int(id))
	}
}

// Estimate implements gossip.ColumnarAgent. Like the classic node, a
// Count-Sketch-Reset host always has an estimate (possibly 0 before
// any bit is heard).
func (c *Columnar) Estimate(id gossip.NodeID) (float64, bool) {
	return c.est[id], true
}

// BitSet reports whether host id's derived bit at (bin, level) is
// currently considered set (age within cutoff).
func (c *Columnar) BitSet(id gossip.NodeID, bin, level int) bool {
	return c.read.bitSet(c.CounterAt(id, bin, level), level)
}

// refreshEstimate re-derives host i's estimate from its block. Eager,
// unlike Node's: Estimate(id) has readers that hold no lock.
func (c *Columnar) refreshEstimate(i int) {
	c.est[i] = c.read.estimate(c.block(i))
}
