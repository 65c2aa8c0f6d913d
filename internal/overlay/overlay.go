// Package overlay implements a TAG-style spanning-tree aggregation
// baseline (Madden et al., §II a / §VI): a leader floods an interest,
// hosts arrange into a BFS tree over the current topology, and partial
// aggregates flow up the tree, one hop per round.
//
// The baseline exists to demonstrate the trade the paper describes:
// on a static network the tree computes the aggregate *exactly* in
// O(depth) rounds, but any host that fails between tree construction
// and collection silently disconnects its entire subtree from the
// result. Gossip protocols degrade gracefully; trees do not.
package overlay

import (
	"fmt"

	"dynagg/internal/gossip"
)

// Topology provides the adjacency the tree is built over.
type Topology interface {
	Size() int
	Alive(id gossip.NodeID) bool
	Neighbors(id gossip.NodeID) []gossip.NodeID
}

// Tree is a BFS spanning tree rooted at a leader.
type Tree struct {
	Root   gossip.NodeID
	Parent []gossip.NodeID // Parent[i] = -1 for root and unreached hosts
	Depth  []int           // Depth[i] = -1 for unreached hosts
	Order  []gossip.NodeID // BFS order of reached hosts
}

// Build constructs a BFS tree from root over the live hosts of the
// topology. Unreachable live hosts are simply not in the tree — the
// overlay cannot aggregate what it cannot route to.
func Build(topo Topology, root gossip.NodeID) (*Tree, error) {
	n := topo.Size()
	if int(root) < 0 || int(root) >= n {
		return nil, fmt.Errorf("overlay: root %d outside population of %d", root, n)
	}
	if !topo.Alive(root) {
		return nil, fmt.Errorf("overlay: root %d is not alive", root)
	}
	t := &Tree{
		Root:   root,
		Parent: make([]gossip.NodeID, n),
		Depth:  make([]int, n),
	}
	for i := range t.Parent {
		t.Parent[i] = -1
		t.Depth[i] = -1
	}
	t.Depth[root] = 0
	queue := []gossip.NodeID{root}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		t.Order = append(t.Order, cur)
		for _, nb := range topo.Neighbors(cur) {
			if !topo.Alive(nb) || t.Depth[nb] >= 0 {
				continue
			}
			t.Depth[nb] = t.Depth[cur] + 1
			t.Parent[nb] = cur
			queue = append(queue, nb)
		}
	}
	return t, nil
}

// MaxDepth returns the tree height (0 for a bare root).
func (t *Tree) MaxDepth() int {
	d := 0
	for _, id := range t.Order {
		if t.Depth[id] > d {
			d = t.Depth[id]
		}
	}
	return d
}

// Result is the outcome of one tree aggregation.
type Result struct {
	Sum   float64
	Count int
	// Rounds is the number of communication rounds consumed: one per
	// tree level for the up-sweep.
	Rounds int
	// Lost is the number of tree hosts whose contribution was dropped
	// because a host on their path to the root had failed by
	// collection time.
	Lost int
}

// Average returns Sum/Count, or 0 when nothing was collected.
func (r Result) Average() float64 {
	if r.Count == 0 {
		return 0
	}
	return r.Sum / float64(r.Count)
}

// Collect runs the up-sweep: each host aggregates its own value with
// its children's partial aggregates and forwards to its parent. alive
// is evaluated at collection time, so hosts that failed after Build
// drop their whole subtree (the failure mode gossip avoids).
func (t *Tree) Collect(values []float64, alive func(gossip.NodeID) bool) Result {
	n := len(t.Parent)
	sum := make([]float64, n)
	cnt := make([]int, n)
	dead := make([]bool, n)
	for _, id := range t.Order {
		if alive(id) {
			sum[id] = values[id]
			cnt[id] = 1
		} else {
			dead[id] = true
		}
	}
	res := Result{Rounds: t.MaxDepth()}
	// Process leaves upward: reverse BFS order guarantees children
	// before parents.
	for i := len(t.Order) - 1; i >= 0; i-- {
		id := t.Order[i]
		if id == t.Root {
			continue
		}
		parent := t.Parent[id]
		if dead[id] || dead[parent] {
			// A dead host forwards nothing; a dead parent swallows the
			// subtree. Everything accumulated below id is lost.
			if !dead[id] {
				res.Lost += cnt[id]
			} else {
				res.Lost += cnt[id] // partials that reached id die with it
			}
			continue
		}
		sum[parent] += sum[id]
		cnt[parent] += cnt[id]
	}
	if !dead[t.Root] {
		res.Sum = sum[t.Root]
		res.Count = cnt[t.Root]
	} else {
		res.Lost += cnt[t.Root]
	}
	return res
}
