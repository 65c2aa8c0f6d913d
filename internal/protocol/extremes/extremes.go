// Package extremes applies the paper's age-out technique to extremum
// aggregates: dynamic MIN and MAX over the hosts currently in the
// network.
//
// Static gossip max is trivial — forward the largest value seen and it
// floods in logarithmic time — but, like the counting sketch, it is a
// monotone OR-style computation: when the host holding the maximum
// departs, nothing ever retires its value. The fix is the same as
// Count-Sketch-Reset's (§IV): attach an age to every candidate. The
// host whose own value a candidate carries pins that candidate's age
// at zero; everyone else increments ages each round and keeps the
// minimum age seen per candidate when gossiping. A candidate whose age
// exceeds a propagation cutoff has, with high probability, lost every
// host sourcing it and is dropped.
//
// Each host retains a small table of the best K live candidates rather
// than just the best one, so when the extremum ages out the estimate
// falls back to the runner-up immediately instead of re-flooding from
// scratch.
//
// The cutoff plays the role of f(k): under uniform gossip a still-
// sourced candidate's age is bounded by the network's flood time,
// which is O(log n); DefaultCutoff is generous for populations up to
// millions. Slower environments (spatial grids, sparse traces) need a
// larger cutoff, exactly as §IV-A discusses for the counting sketch.
package extremes

import (
	"fmt"
	"math/bits"
	"slices"

	"dynagg/internal/gossip"
	"dynagg/internal/xrand"
)

// Mode selects which extremum the protocol maintains.
type Mode int

const (
	// Max maintains the network-wide maximum.
	Max Mode = iota
	// Min maintains the network-wide minimum.
	Min
)

// String returns the mode name.
func (m Mode) String() string {
	if m == Min {
		return "min"
	}
	return "max"
}

// DefaultCutoff is the default candidate age limit: comfortably above
// uniform-gossip flood time (≈ log₂ n + a few rounds) for any
// practical population.
const DefaultCutoff = 30

// DefaultTableSize is the default number of candidates retained.
const DefaultTableSize = 8

// Candidate is one (value, owner) pair with its gossip age: 16 bytes,
// the layout of wire.Candidate, so a table row stays cache-resident.
// Ages never exceed the round count, so int32 is exact.
type Candidate struct {
	Value float64
	Owner gossip.NodeID
	Age   int32
}

// Config parametrizes an extremes host.
type Config struct {
	// Mode selects Min or Max.
	Mode Mode
	// Cutoff is the age beyond which a candidate is considered
	// orphaned and dropped. Zero takes DefaultCutoff.
	Cutoff int
	// TableSize is how many candidates each host retains. Zero takes
	// DefaultTableSize.
	TableSize int
}

func (c *Config) fillDefaults() {
	if c.Cutoff == 0 {
		c.Cutoff = DefaultCutoff
	}
	if c.TableSize == 0 {
		c.TableSize = DefaultTableSize
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Cutoff < 0 {
		return fmt.Errorf("extremes: negative Cutoff %d", c.Cutoff)
	}
	if c.TableSize < 0 {
		return fmt.Errorf("extremes: negative TableSize %d", c.TableSize)
	}
	if c.Mode != Min && c.Mode != Max {
		return fmt.Errorf("extremes: unknown Mode %d", c.Mode)
	}
	return nil
}

// Table is the gossiped candidate-table payload of EmitAppend: a
// snapshot of the emitter's table taken at emission time, wrapped in a
// struct so a pointer to it crosses the Envelope.Payload interface
// without boxing a slice header.
type Table struct {
	Candidates []Candidate
}

// Detach implements gossip.Detacher: a table that owns its candidates.
func (t *Table) Detach() any { return &Table{Candidates: slices.Clone(t.Candidates)} }

// Node is one dynamic-extremum host.
type Node struct {
	id    gossip.NodeID
	value float64
	cfg   Config

	// table holds the best candidates, sorted best-first. The host's
	// own candidate is always present with age 0.
	table []Candidate

	// snap is the reusable snapshot sent by EmitAppend; mergeBuf is
	// Exchange's reusable scratch.
	snap     Table
	mergeBuf []Candidate
}

var (
	_ gossip.Agent         = (*Node)(nil)
	_ gossip.Exchanger     = (*Node)(nil)
	_ gossip.AppendEmitter = (*Node)(nil)
)

// New returns an extremes host contributing the given value.
func New(id gossip.NodeID, value float64, cfg Config) *Node {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg.fillDefaults()
	n := &Node{id: id, value: value, cfg: cfg}
	n.table = []Candidate{n.own()}
	return n
}

// ID returns the host id.
func (n *Node) ID() gossip.NodeID { return n.id }

// Value returns the host's own contribution.
func (n *Node) Value() float64 { return n.value }

// Table returns a copy of the candidate table, best first.
func (n *Node) Table() []Candidate { return slices.Clone(n.table) }

// better reports whether a beats b under mode, with owner id as a
// deterministic tie-break.
func better(a, b Candidate, mode Mode) bool {
	if a.Value != b.Value {
		if mode == Max {
			return a.Value > b.Value
		}
		return a.Value < b.Value
	}
	return a.Owner < b.Owner
}

// age increments the age of every candidate in row not owned by owner.
func age(row []Candidate, owner gossip.NodeID) {
	for i := range row {
		if row[i].Owner != owner {
			row[i].Age++
		}
	}
}

// normalize rebuilds a table from whatever multiset occupies row:
// dedup by owner keeping the youngest candidate whole (the first on
// ties), re-pin own at age zero, drop aged-out candidates, keep the
// best TableSize sorted best-first. In place and linear in the row:
// owners are deduplicated through a small open-addressing index (on the
// stack for rows of up to 32 entries, the multiset of two tables and
// the own entry; on the heap only for a larger forged Table), and each
// live candidate is inserted into the sorted best-TableSize prefix. The
// result is row's prefix, or a new slice only if the own entry does
// not fit in row's capacity.
func normalize(row []Candidate, own Candidate, cfg *Config) []Candidate {
	// index holds, per hashed owner, 1 + the owner's position in the
	// deduplicated prefix row[:kept] (0: empty). It has a power-of-two
	// size of at least twice the row, so probe runs stay short.
	var stack [64]int32
	index := stack[:]
	if len(row) > len(stack)/2 {
		index = make([]int32, 1<<bits.Len(uint(2*len(row)-1)))
	}
	shift, mask := 33-bits.Len(uint(len(index))), uint32(len(index)-1)
	// Dedup foreign candidates by owner, keeping the first of minimum
	// age; own entries are discarded here and re-pinned below.
	kept := 0
	for _, cand := range row {
		if cand.Owner == own.Owner {
			continue
		}
		for h := uint32(cand.Owner) * 0x9e3779b1 >> shift; ; h = (h + 1) & mask {
			k := index[h] - 1
			if k < 0 {
				index[h] = int32(kept + 1)
				row[kept] = cand
				kept++
				break
			}
			if row[k].Owner == cand.Owner {
				if cand.Age < row[k].Age {
					row[k] = cand
				}
				break
			}
		}
	}
	// Insert each live candidate, then own (always live at age 0), into
	// the best-first prefix row[:m]. m never passes the candidate being
	// read, so the prefix overwrites only entries already read. Owners
	// are unique, so better is a strict total order and the prefix is
	// the one best TableSize whatever the insertion order.
	m := 0
	for _, cand := range row[:kept] {
		if int(cand.Age) <= cfg.Cutoff {
			m = insertBest(row, m, cand, cfg)
		}
	}
	if m == len(row) && m < cfg.TableSize {
		row = append(row, Candidate{})
	}
	return row[:insertBest(row, m, own, cfg)]
}

// insertBest inserts cand into top[:m], sorted best-first and at most
// TableSize long, and returns the prefix's new length: a full prefix
// drops its worst entry, or cand if cand is no better.
func insertBest(top []Candidate, m int, cand Candidate, cfg *Config) int {
	if m == cfg.TableSize {
		if !better(cand, top[m-1], cfg.Mode) {
			return m
		}
		m--
	}
	k := m
	for ; k > 0 && better(cand, top[k-1], cfg.Mode); k-- {
		top[k] = top[k-1]
	}
	top[k] = cand
	return m + 1
}

// own is the host's own candidate, pinned at age zero.
func (n *Node) own() Candidate { return Candidate{Value: n.value, Owner: n.id} }

// normalize rebuilds the host's table from the multiset it holds.
func (n *Node) normalize() { n.table = normalize(n.table, n.own(), &n.cfg) }

// BeginRound implements gossip.Agent: age every foreign candidate.
func (n *Node) BeginRound(round int) {
	age(n.table, n.id)
	n.normalize()
}

// Emit implements gossip.Agent: EmitAppend onto a fresh slice.
func (n *Node) Emit(round int, rng *xrand.Rand, pick gossip.PeerPicker) []gossip.Envelope {
	return n.EmitAppend(nil, round, rng, pick)
}

// EmitAppend implements gossip.AppendEmitter: the full candidate table
// goes to one random peer, snapshotted into a per-host buffer reused
// across rounds — amortized zero allocation.
func (n *Node) EmitAppend(dst []gossip.Envelope, round int, rng *xrand.Rand, pick gossip.PeerPicker) []gossip.Envelope {
	peer, ok := pick()
	if !ok {
		return dst
	}
	n.snap.Candidates = append(n.snap.Candidates[:0], n.table...)
	return append(dst, gossip.Envelope{To: peer, Payload: &n.snap})
}

// Receive implements gossip.Agent: merge the incoming table. Merging is
// idempotent and order-insensitive (set union + min-age + truncation),
// so applying on arrival is safe. A payload other than EmitAppend's
// *Table is ignored.
func (n *Node) Receive(payload any) {
	if t, ok := payload.(*Table); ok {
		n.table = append(n.table, t.Candidates...)
		n.normalize()
	}
}

// EndRound implements gossip.Agent.
func (n *Node) EndRound(round int) {}

// Exchange implements gossip.Exchanger: mutual table merge. The merge
// buffer is reused across calls.
func (n *Node) Exchange(peer gossip.Exchanger) {
	p := peer.(*Node)
	merged := append(n.mergeBuf[:0], n.table...)
	merged = append(merged, p.table...)
	n.mergeBuf = merged
	n.table = append(n.table[:0], merged...)
	n.normalize()
	p.table = append(p.table[:0], merged...)
	p.normalize()
}

// Best returns the host's current best candidate.
func (n *Node) Best() Candidate { return n.table[0] }

// Estimate implements gossip.Agent: the best live candidate's value.
func (n *Node) Estimate() (float64, bool) {
	if len(n.table) == 0 {
		return 0, false
	}
	return n.table[0].Value, true
}
