package extremes

import (
	"dynagg/internal/gossip"
)

// colCandidate is the columnar plane's compact candidate: the same
// (value, owner, age) triple as Candidate with the integers narrowed
// so a row of them stays cache-resident. Ages never exceed the round
// count, so int32 is exact.
type colCandidate struct {
	value float64
	owner int32
	age   int32
}

// Columnar is the struct-of-arrays form of the dynamic extremum
// protocol: every host's candidate table is a fixed-stride row of ONE
// flat population block (gossip.ColumnarAgent + gossip.ColExchanger).
// Rows are 2×TableSize+1 wide — the normalized table occupies the
// first TableSize slots and the rest is in-place merge headroom (two
// full tables plus the re-pinned own entry), so receiving a snapshot
// (Deliver) or a pairwise exchange never allocates. Gossip messages carry no payload on the columnar plane;
// Deliver merges the emitter's start-of-round snapshot row (shadow
// block) into the destination, exactly the classic path's table copy.
//
// normalize here is Node.normalize's algorithm (map-free: linear dedup
// over ≤ 2×TableSize+1 entries) over the narrower rows, computing the
// same deterministic function of the candidate multiset — dedup by
// owner keeping the youngest age, re-pin the own entry at age zero,
// drop aged-out candidates, sort best-first with the owner tie-break,
// truncate — so tables, and therefore estimates, are byte-identical to
// a population of *Node agents on the classic path.
type Columnar struct {
	cfg    Config
	value  []float64
	stride int // row width = 2*TableSize + 1

	table []colCandidate // n*stride; host i's table is the row prefix
	tlen  []int32

	// snap holds each host's emission-time table snapshot (≤ TableSize
	// entries per host), the columnar form of the classic snapshot
	// payload.
	snap    []colCandidate
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
		table:   make([]colCandidate, n*(2*cfg.TableSize+1)),
		tlen:    make([]int32, n),
		snap:    make([]colCandidate, n*cfg.TableSize),
		snapLen: make([]int32, n),
	}
	for i, v := range vs {
		c.table[i*c.stride] = colCandidate{value: v, owner: int32(i), age: 0}
		c.tlen[i] = 1
	}
	return c
}

// Len implements gossip.ColumnarAgent.
func (c *Columnar) Len() int { return len(c.tlen) }

// Table returns a copy of host id's candidate table, best first.
func (c *Columnar) Table(id gossip.NodeID) []Candidate {
	base := int(id) * c.stride
	out := make([]Candidate, c.tlen[id])
	for j := range out {
		cc := c.table[base+j]
		out[j] = Candidate{Value: cc.value, Owner: gossip.NodeID(cc.owner), Age: int(cc.age)}
	}
	return out
}

// better reports whether a beats b, mirroring Node.better.
func (c *Columnar) better(a, b colCandidate) bool {
	if a.value != b.value {
		if c.cfg.Mode == Max {
			return a.value > b.value
		}
		return a.value < b.value
	}
	return a.owner < b.owner
}

// normalize rebuilds host i's row from whatever multiset currently
// occupies it: dedup by owner keeping the youngest age, re-pin the own
// entry, drop aged-out candidates, sort best-first, truncate to the
// table size. In place, no allocation.
func (c *Columnar) normalize(i int) {
	base := i * c.stride
	row := c.table[base : base+int(c.tlen[i])]
	// Dedup foreign candidates by owner, keeping the minimum age
	// (per-owner value is fixed, so duplicates differ only in age);
	// own entries are discarded here and re-pinned below.
	kept := 0
	for _, cand := range row {
		if cand.owner == int32(i) {
			continue
		}
		dup := false
		for k := 0; k < kept; k++ {
			if row[k].owner == cand.owner {
				if cand.age < row[k].age {
					row[k].age = cand.age
				}
				dup = true
				break
			}
		}
		if !dup {
			row[kept] = cand
			kept++
		}
	}
	// Drop aged-out candidates, then add the own candidate (always
	// live at age 0).
	live := 0
	for k := 0; k < kept; k++ {
		if int(row[k].age) > c.cfg.Cutoff {
			continue
		}
		row[live] = row[k]
		live++
	}
	row = c.table[base : base+live+1]
	row[live] = colCandidate{value: c.value[i], owner: int32(i), age: 0}
	// Insertion sort: owners are unique, so better is a strict total
	// order and the result matches Node.normalize's exactly.
	for j := 1; j < len(row); j++ {
		cand := row[j]
		k := j
		for ; k > 0 && c.better(cand, row[k-1]); k-- {
			row[k] = row[k-1]
		}
		row[k] = cand
	}
	n := len(row)
	if n > c.cfg.TableSize {
		n = c.cfg.TableSize
	}
	c.tlen[i] = int32(n)
}

// BeginRange implements gossip.ColumnarAgent: age every foreign
// candidate, then normalize (Node.BeginRound).
func (c *Columnar) BeginRange(rc *gossip.ColRound, lo, hi int) {
	for _, id := range rc.Live(lo, hi) {
		i := int(id)
		base := i * c.stride
		for j := 0; j < int(c.tlen[i]); j++ {
			if c.table[base+j].owner != int32(i) {
				c.table[base+j].age++
			}
		}
		c.normalize(i)
	}
}

// EmitRange implements gossip.ColumnarAgent: snapshot each live host's
// table into the shadow rows, then address one payload-free message to
// a random peer. Isolated hosts emit nothing, as in Node.Emit.
func (c *Columnar) EmitRange(rc *gossip.ColRound, lo, hi int) {
	out := rc.Out
	for _, id := range rc.Live(lo, hi) {
		peer, ok := rc.Pick(id)
		if !ok {
			continue
		}
		i := int(id)
		n := int(c.tlen[i])
		copy(c.snap[i*c.cfg.TableSize:i*c.cfg.TableSize+n], c.table[i*c.stride:i*c.stride+n])
		c.snapLen[i] = int32(n)
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
		n := int(c.tlen[to])
		sn := int(c.snapLen[from])
		copy(c.table[to*c.stride+n:to*c.stride+n+sn], c.snap[from*c.cfg.TableSize:from*c.cfg.TableSize+sn])
		c.tlen[to] = int32(n + sn)
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
		alen, blen := int(c.tlen[a]), int(c.tlen[b])
		// Append a's table to b's row first, then b's (still intact)
		// table to a's row.
		copy(c.table[b*c.stride+blen:b*c.stride+blen+alen], c.table[a*c.stride:a*c.stride+alen])
		copy(c.table[a*c.stride+alen:a*c.stride+alen+blen], c.table[b*c.stride:b*c.stride+blen])
		c.tlen[a] = int32(alen + blen)
		c.tlen[b] = int32(alen + blen)
		c.normalize(a)
		c.normalize(b)
	}
}

// Best returns host id's current best candidate.
func (c *Columnar) Best(id gossip.NodeID) Candidate {
	cc := c.table[int(id)*c.stride]
	return Candidate{Value: cc.value, Owner: gossip.NodeID(cc.owner), Age: int(cc.age)}
}

// Estimate implements gossip.ColumnarAgent: the best live candidate's
// value.
func (c *Columnar) Estimate(id gossip.NodeID) (float64, bool) {
	if c.tlen[id] == 0 {
		return 0, false
	}
	return c.table[int(id)*c.stride].value, true
}
