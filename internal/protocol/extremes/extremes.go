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
// ties), re-pin own at age zero, drop aged-out candidates, sort
// best-first, truncate to the table size. In place and map-free (a
// linear dedup: the multiset is at most two tables and the own entry);
// the result is row's prefix, or a new slice only if the own entry does
// not fit in row's capacity.
func normalize(row []Candidate, own Candidate, cfg *Config) []Candidate {
	// Dedup foreign candidates by owner, keeping the first of minimum
	// age; own entries are discarded here and re-pinned below.
	kept := 0
	for _, cand := range row {
		if cand.Owner == own.Owner {
			continue
		}
		dup := false
		for k := 0; k < kept; k++ {
			if row[k].Owner == cand.Owner {
				if cand.Age < row[k].Age {
					row[k] = cand
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
		if int(row[k].Age) > cfg.Cutoff {
			continue
		}
		row[live] = row[k]
		live++
	}
	row = append(row[:live], own)
	// Insertion sort: owners are unique, so better is a strict total
	// order and any correct sort yields this one table.
	for j := 1; j < len(row); j++ {
		cand := row[j]
		k := j
		for ; k > 0 && better(cand, row[k-1], cfg.Mode); k-- {
			row[k] = row[k-1]
		}
		row[k] = cand
	}
	if len(row) > cfg.TableSize {
		row = row[:cfg.TableSize]
	}
	return row
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
