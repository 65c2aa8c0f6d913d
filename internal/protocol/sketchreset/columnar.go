package sketchreset

import (
	"dynagg/internal/gossip"
	"dynagg/internal/wire"
)

// Columnar is the struct-of-arrays form of Count-Sketch-Reset: the
// whole population's m×L age matrices live in ONE flat []uint8 block
// (host-major, bin-major within a host) instead of one heap slice per
// host, and the round phases run as flat loops over it
// (gossip.ColumnarAgent). Gossip messages carry no payload at all on
// the columnar plane — Deliver min-merges the emitter's start-of-round
// block (double-buffered in shadow) into the destination's block,
// which is exactly what the classic path's snapshot payloads did, one
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

	cutoff []float64 // precomputed f(k) per level
	est    []float64
}

var _ gossip.ColExchanger = (*Columnar)(nil)

// NewColumnar returns the columnar population of n Count-Sketch-Reset
// hosts, all sharing cfg. Identifier placement matches New exactly:
// deterministic per (host id, identifier index).
func NewColumnar(n int, cfg Config) *Columnar {
	cutoff := cfg.prepare()
	p := cfg.Params
	stride := p.Bins * p.Levels
	c := &Columnar{
		cfg:      cfg,
		stride:   stride,
		counters: make([]uint8, n*stride),
		shadow:   make([]uint8, n*stride),
		cutoff:   cutoff,
		ownedOff: make([]int32, n+1),
		est:      make([]float64, n),
	}
	for i := range c.counters {
		c.counters[i] = Never
	}
	for id := 0; id < n; id++ {
		base := id * stride
		start := len(c.owned)
		for j := 0; j < cfg.Identifiers; j++ {
			pos := p.Place((uint64(id)+1)<<20 | uint64(j))
			idx := int32(pos.Bin*p.Levels + pos.Level)
			dup := false
			for _, o := range c.owned[start:] {
				if o == idx {
					dup = true
					break
				}
			}
			if !dup {
				c.owned = append(c.owned, idx)
			}
			c.counters[base+int(idx)] = 0
		}
		c.ownedOff[id+1] = int32(len(c.owned))
		c.refreshEstimate(id)
	}
	return c
}

// Len implements gossip.ColumnarAgent.
func (c *Columnar) Len() int { return len(c.est) }

// Owned returns the number of distinct (bin, level) indices host id
// sources.
func (c *Columnar) Owned(id gossip.NodeID) int {
	return int(c.ownedOff[id+1] - c.ownedOff[id])
}

// CounterAt returns host id's age counter at (bin, level).
func (c *Columnar) CounterAt(id gossip.NodeID, bin, level int) uint8 {
	return c.counters[int(id)*c.stride+bin*c.cfg.Params.Levels+level]
}

// BeginRange implements gossip.ColumnarAgent: age every counter each
// live host does not source (Figure 5 step 2), pinning owned indices
// back to zero.
func (c *Columnar) BeginRange(rc *gossip.ColRound, lo, hi int) {
	for _, id := range rc.Live(lo, hi) {
		i := int(id)
		block := c.counters[i*c.stride : (i+1)*c.stride]
		wire.AgeCounters(block)
		for _, idx := range c.owned[c.ownedOff[i]:c.ownedOff[i+1]] {
			block[idx] = 0
		}
	}
}

// EmitRange implements gossip.ColumnarAgent: snapshot each live
// host's aged matrix into the shadow block (the columnar form of the
// classic path's per-message snapshot payload), then address one
// payload-free message to a random peer. Isolated hosts emit nothing,
// as in Node.Emit.
func (c *Columnar) EmitRange(rc *gossip.ColRound, lo, hi int) {
	out := rc.Out
	for _, id := range rc.Live(lo, hi) {
		peer, ok := rc.Pick(id)
		if !ok {
			continue
		}
		i := int(id)
		copy(c.shadow[i*c.stride:(i+1)*c.stride], c.counters[i*c.stride:(i+1)*c.stride])
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
		to, from := int(m.To), int(m.From)
		wire.MinCounters(c.counters[to*c.stride:(to+1)*c.stride], c.shadow[from*c.stride:(from+1)*c.stride])
	}
}

// ExchangePairs implements gossip.ColExchanger: mutual min-merge of
// the two ends' live matrices with both owned sets re-pinned to zero
// afterwards — exactly Node.Exchange, over flat blocks.
func (c *Columnar) ExchangePairs(rc *gossip.ColRound, pairs []gossip.Pair) {
	for _, pr := range pairs {
		a := c.counters[int(pr.A)*c.stride : (int(pr.A)+1)*c.stride]
		b := c.counters[int(pr.B)*c.stride : (int(pr.B)+1)*c.stride]
		wire.MinCounters(a, b)
		copy(b, a)
		for _, idx := range c.owned[c.ownedOff[pr.A]:c.ownedOff[pr.A+1]] {
			a[idx] = 0
		}
		for _, idx := range c.owned[c.ownedOff[pr.B]:c.ownedOff[pr.B+1]] {
			b[idx] = 0
		}
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
	return bitSet(c.CounterAt(id, bin, level), c.cutoff[level])
}

// refreshEstimate re-derives host i's estimate from its block. Eager,
// unlike Node's: Estimate(id) has readers that hold no lock.
func (c *Columnar) refreshEstimate(i int) {
	c.est[i] = estimate(c.counters[i*c.stride:(i+1)*c.stride], c.cutoff, c.cfg.Scale)
}
