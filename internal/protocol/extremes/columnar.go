package extremes

import (
	"slices"

	"dynagg/internal/gossip"
)

// Columnar is the dynamic extremum protocol over a whole population:
// every host's candidate table is a fixed-stride row of ONE flat
// population block (gossip.ColumnarAgent + gossip.ColExchanger). Rows
// are 2×TableSize+1 wide — the normalized table occupies the first
// TableSize slots and the rest is in-place merge headroom (two full
// tables plus the re-pinned own entry), so receiving a snapshot
// (Deliver) or a pairwise exchange never allocates. Gossip messages
// carry no payload on the columnar plane; Deliver merges the emitter's
// start-of-round snapshot row (shadow block) into the destination,
// exactly the classic path's table copy.
//
// Aging and normalization are the package's age and normalize, the
// code Node runs, applied to a row; so tables, and therefore
// estimates, are byte-identical to a population of *Node agents on the
// classic path.
type Columnar struct {
	cfg    Config
	value  []float64
	stride int // row width = 2*TableSize + 1

	table []Candidate // n*stride; host i's table is the row prefix
	tlen  []int32

	// snap holds each host's emission-time table snapshot (≤ TableSize
	// entries per host), the columnar form of the classic snapshot
	// payload.
	snap    []Candidate
	snapLen []int32
}

var _ gossip.ColExchanger = (*Columnar)(nil)

// NewColumnar returns the columnar population with contributions vs,
// all hosts sharing cfg.
func NewColumnar(vs []float64, cfg Config) *Columnar {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg.fillDefaults()
	n := len(vs)
	c := &Columnar{
		cfg:     cfg,
		value:   append([]float64(nil), vs...),
		stride:  2*cfg.TableSize + 1,
		table:   make([]Candidate, n*(2*cfg.TableSize+1)),
		tlen:    make([]int32, n),
		snap:    make([]Candidate, n*cfg.TableSize),
		snapLen: make([]int32, n),
	}
	for i := range vs {
		c.table[i*c.stride] = c.own(i)
		c.tlen[i] = 1
	}
	return c
}

// Len implements gossip.ColumnarAgent.
func (c *Columnar) Len() int { return len(c.tlen) }

// Table returns a copy of host id's candidate table, best first.
func (c *Columnar) Table(id gossip.NodeID) []Candidate {
	return slices.Clone(c.row(int(id)))
}

// row is host i's table, capped at the row width so that nothing
// written through it can spill into the next host's row.
func (c *Columnar) row(i int) []Candidate {
	base := i * c.stride
	return c.table[base : base+int(c.tlen[i]) : base+c.stride]
}

// own is host i's own candidate, pinned at age zero.
func (c *Columnar) own(i int) Candidate {
	return Candidate{Value: c.value[i], Owner: gossip.NodeID(i)}
}

// normalize rebuilds host i's row from the multiset it holds. The
// headroom always fits the re-pinned own entry, so the result stays in
// the row.
func (c *Columnar) normalize(i int) {
	c.tlen[i] = int32(len(normalize(c.row(i), c.own(i), &c.cfg)))
}

// BeginRange implements gossip.ColumnarAgent: age every foreign
// candidate, then normalize (Node.BeginRound).
func (c *Columnar) BeginRange(rc *gossip.ColRound, lo, hi int) {
	for _, id := range rc.Live(lo, hi) {
		age(c.row(int(id)), id)
		c.normalize(int(id))
	}
}

// EmitRange implements gossip.ColumnarAgent: snapshot each live host's
// table into the shadow rows, then address one payload-free message to
// a random peer. Isolated hosts emit nothing, as in Node.Emit.
func (c *Columnar) EmitRange(rc *gossip.ColRound, lo, hi int) {
	live := rc.Live(lo, hi)
	out := slices.Grow(rc.Out, len(live)) // one message per live host at most
	for _, id := range live {
		peer, ok := rc.Pick(id)
		if !ok {
			continue
		}
		i := int(id)
		c.snapLen[i] = int32(copy(c.snap[i*c.cfg.TableSize:], c.row(i)))
		out = append(out, gossip.ColMsg{To: peer, From: id})
	}
	rc.Out = out
}

// Deliver implements gossip.ColumnarAgent: append the emitter's
// snapshot to the destination's row (the merge headroom guarantees it
// fits) and normalize — exactly Node.Receive, in emitter order.
func (c *Columnar) Deliver(rc *gossip.ColRound, msgs []gossip.ColMsg) {
	for _, m := range msgs {
		if !rc.Alive[m.To] {
			continue
		}
		to, from := int(m.To), int(m.From)
		snap := c.snap[from*c.cfg.TableSize : from*c.cfg.TableSize+int(c.snapLen[from])]
		c.tlen[to] = int32(len(append(c.row(to), snap...)))
		c.normalize(to)
	}
}

// EndRange implements gossip.ColumnarAgent (Node.EndRound is empty).
func (c *Columnar) EndRange(rc *gossip.ColRound, lo, hi int) {}

// ExchangePairs implements gossip.ColExchanger: both ends rebuild
// from the union multiset of the two tables (Node.Exchange — normalize
// is a function of the multiset, so the merge buffer order is
// immaterial). Each row's merge headroom holds both tables.
func (c *Columnar) ExchangePairs(rc *gossip.ColRound, pairs []gossip.Pair) {
	for _, pr := range pairs {
		a, b := int(pr.A), int(pr.B)
		// Append a's table to b's row first, then b's (still intact)
		// table to a's row.
		ra, rb := c.row(a), c.row(b)
		c.tlen[b] = int32(len(append(rb, ra...)))
		c.tlen[a] = int32(len(append(ra, rb...)))
		c.normalize(a)
		c.normalize(b)
	}
}

// Best returns host id's current best candidate.
func (c *Columnar) Best(id gossip.NodeID) Candidate { return c.table[int(id)*c.stride] }

// Estimate implements gossip.ColumnarAgent: the best live candidate's
// value.
func (c *Columnar) Estimate(id gossip.NodeID) (float64, bool) {
	if c.tlen[id] == 0 {
		return 0, false
	}
	return c.table[int(id)*c.stride].Value, true
}
