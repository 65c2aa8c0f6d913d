package extremes

import (
	"math"
	"slices"
	"testing"

	"dynagg/internal/gossip"
	"dynagg/internal/xrand"
)

// referenceNormalize is Node.normalize as it stood before it became
// map-free: dedup through a map keeping the first candidate of minimum
// age per owner, re-pin the own entry, drop aged-out candidates, sort
// with slices.SortFunc, truncate. Kept as the oracle for the in-place
// algorithm.
func referenceNormalize(n *Node, multiset []Candidate) []Candidate {
	byOwner := make(map[gossip.NodeID]Candidate, len(multiset)+1)
	for _, c := range multiset {
		if prev, ok := byOwner[c.Owner]; !ok || c.Age < prev.Age {
			byOwner[c.Owner] = c
		}
	}
	byOwner[n.id] = Candidate{Value: n.value, Owner: n.id, Age: 0}
	var table []Candidate
	for _, c := range byOwner {
		if int(c.Age) > n.cfg.Cutoff {
			continue
		}
		table = append(table, c)
	}
	slices.SortFunc(table, func(a, b Candidate) int {
		if better(a, b, n.cfg.Mode) {
			return -1
		}
		if better(b, a, n.cfg.Mode) {
			return 1
		}
		return 0
	})
	if len(table) > n.cfg.TableSize {
		table = table[:n.cfg.TableSize]
	}
	return table
}

// TestNormalizeMatchesMapAndSortReference compares the map-free
// normalize, through both Node and a Columnar row, with the map +
// SortFunc one it replaced over generated candidate multisets:
// duplicate owners with different ages, forged duplicates carrying
// another value, the own entry arriving at an age above zero (or not
// at all), ages on either side of the cutoff, more live entries than
// the table holds, values tied across owners, both modes — and, once
// per configuration, a forged 100-candidate row over 128 owners, too
// large for normalize's stack index.
func TestNormalizeMatchesMapAndSortReference(t *testing.T) {
	const owners = 14 // few enough that duplicates are the rule
	for _, mode := range []Mode{Max, Min} {
		for _, cfg := range []Config{
			{Mode: mode, Cutoff: 5, TableSize: 4},
			{Mode: mode, Cutoff: 20},
			{Mode: mode, Cutoff: 1, TableSize: 1},
		} {
			rng := xrand.NewStream(uint64(cfg.Cutoff), uint64(mode))
			// Owner values come from four levels, so ties across owners
			// (broken by owner id) are common.
			values := make([]float64, owners)
			for i := range values {
				values[i] = float64(rng.Intn(4)) * 12.5
			}
			for trial := 0; trial <= 2000; trial++ {
				id := gossip.NodeID(rng.Intn(owners))
				n := New(id, values[id], cfg)
				multiset := make([]Candidate, rng.Intn(2*n.cfg.TableSize+6))
				rowOwners := owners
				if trial == 2000 {
					multiset, rowOwners = make([]Candidate, 100), 128
				}
				for i := range multiset {
					// Owners past the value levels (the forged row's) add
					// their block number to their level, so ties stay common.
					owner := gossip.NodeID(rng.Intn(rowOwners))
					c := Candidate{Value: float64(owner/owners) + values[owner%owners], Owner: owner}
					switch rng.Intn(5) {
					case 0:
						c.Age = int32(n.cfg.Cutoff - 1)
					case 1:
						c.Age = int32(n.cfg.Cutoff)
					case 2:
						c.Age = int32(n.cfg.Cutoff + 1)
					default:
						c.Age = int32(rng.Intn(n.cfg.Cutoff + 3))
					}
					if rng.Intn(16) == 0 {
						// A forged duplicate: another value under the same
						// owner. The youngest (first on ties) must win whole.
						c.Value += 1
					}
					multiset[i] = c
				}
				want := referenceNormalize(n, multiset)
				n.table = append(n.table[:0], multiset...)
				n.normalize()
				if !sameTable(n.table, want) {
					t.Fatalf("%v cutoff %d size %d, host %d, multiset %v:\n got  %v\n want %v",
						mode, n.cfg.Cutoff, n.cfg.TableSize, id, multiset, n.table, want)
				}
				// The same multiset as host 0 of a one-host Columnar, its
				// row widened to hold the multiset and the own entry.
				c := NewColumnar(values[:1], cfg)
				c.stride = len(multiset) + 1
				c.table = append(append([]Candidate(nil), multiset...), Candidate{})
				c.tlen[0] = int32(len(multiset))
				c.normalize(0)
				if want := referenceNormalize(New(0, values[0], cfg), multiset); !sameTable(c.Table(0), want) {
					t.Fatalf("columnar %v cutoff %d size %d, multiset %v:\n got  %v\n want %v",
						mode, c.cfg.Cutoff, c.cfg.TableSize, multiset, c.Table(0), want)
				}
			}
		}
	}
}

func sameTable(a, b []Candidate) bool {
	return slices.EqualFunc(a, b, func(x, y Candidate) bool {
		return math.Float64bits(x.Value) == math.Float64bits(y.Value) && x.Owner == y.Owner && x.Age == y.Age
	})
}

// TestSteadyStateAllocatesNothing pins table maintenance to zero
// allocations once the table and the exchange scratch have grown: a
// round of BeginRound, Receive and Exchange works in place.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	cfg := Config{Mode: Max}
	a, b := New(0, 1, cfg), New(1, 2, cfg)
	incoming := &Table{}
	for owner := 2; owner < 2+DefaultTableSize; owner++ {
		incoming.Candidates = append(incoming.Candidates, Candidate{Value: float64(owner), Owner: gossip.NodeID(owner), Age: 1})
	}
	round := 0
	step := func() {
		a.BeginRound(round)
		b.BeginRound(round)
		a.Receive(incoming)
		a.Exchange(b)
		round++
	}
	step()
	if got := testing.AllocsPerRun(100, step); got != 0 {
		t.Errorf("%.2f allocations per steady-state round, want 0", got)
	}
}
