package groups

import (
	"testing"
	"testing/quick"
)

func TestAssignBasic(t *testing.T) {
	// 0-1-2 chained, 3-4 paired, 5 alone.
	a := Assign(6, [][2]int{{0, 1}, {1, 2}, {3, 4}})
	if a.N() != 6 {
		t.Fatalf("N = %d", a.N())
	}
	if a.Groups() != 3 {
		t.Fatalf("Groups = %d, want 3", a.Groups())
	}
	if a.GroupOf(0) != a.GroupOf(2) || a.GroupOf(3) != a.GroupOf(4) {
		t.Error("connected devices not grouped")
	}
	if a.GroupOf(0) == a.GroupOf(3) || a.GroupOf(4) == a.GroupOf(5) {
		t.Error("disconnected devices grouped")
	}
	// Group ids are ordered by smallest member: {0,1,2}=0, {3,4}=1, {5}=2.
	if a.GroupOf(0) != 0 || a.GroupOf(3) != 1 || a.GroupOf(5) != 2 {
		t.Errorf("group ids: %d %d %d", a.GroupOf(0), a.GroupOf(3), a.GroupOf(5))
	}
	if a.SizeOf(0) != 3 || a.SizeOf(1) != 2 || a.SizeOf(2) != 1 {
		t.Errorf("sizes: %v", a.sizes)
	}
	if m := a.Members(1); len(m) != 2 || m[0] != 3 || m[1] != 4 {
		t.Errorf("Members(1) = %v", m)
	}
}

func TestAssignNoEdges(t *testing.T) {
	a := Assign(4, nil)
	if a.Groups() != 4 {
		t.Errorf("Groups = %d, want 4 singletons", a.Groups())
	}
	if a.MeanGroupSizePerHost() != 1 {
		t.Error("singleton mean wrong")
	}
}

func TestAssignEmpty(t *testing.T) {
	a := Assign(0, nil)
	if a.N() != 0 || a.Groups() != 0 {
		t.Error("empty assignment malformed")
	}
	if a.MeanGroupSizePerHost() != 0 {
		t.Error("empty mean should be 0")
	}
}

// Property: Assign matches a reference reachability computation (BFS)
// on random graphs.
func TestAssignMatchesBFS(t *testing.T) {
	prop := func(rawEdges []uint16) bool {
		const n = 24
		var edges [][2]int
		adj := make([][]int, n)
		for _, raw := range rawEdges {
			a := int(raw % n)
			b := int((raw / n) % n)
			if a == b {
				continue
			}
			edges = append(edges, [2]int{a, b})
			adj[a] = append(adj[a], b)
			adj[b] = append(adj[b], a)
		}
		asg := Assign(n, edges)
		// BFS reachability from each device.
		comp := make([]int, n)
		for i := range comp {
			comp[i] = -1
		}
		next := 0
		for s := 0; s < n; s++ {
			if comp[s] != -1 {
				continue
			}
			queue := []int{s}
			comp[s] = next
			for len(queue) > 0 {
				x := queue[0]
				queue = queue[1:]
				for _, y := range adj[x] {
					if comp[y] == -1 {
						comp[y] = next
						queue = append(queue, y)
					}
				}
			}
			next++
		}
		if asg.Groups() != next {
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if (comp[i] == comp[j]) != (asg.GroupOf(i) == asg.GroupOf(j)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: sizes always sum to n and every group is non-empty.
func TestSizesPartition(t *testing.T) {
	prop := func(rawEdges []uint16, nRaw uint8) bool {
		n := int(nRaw%40) + 1
		var edges [][2]int
		for _, raw := range rawEdges {
			a := int(raw) % n
			b := int(raw/7) % n
			if a != b {
				edges = append(edges, [2]int{a, b})
			}
		}
		asg := Assign(n, edges)
		total := 0
		for g, s := range asg.sizes {
			if s <= 0 {
				return false
			}
			if len(asg.Members(g)) != s {
				return false
			}
			total += s
		}
		return total == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMeanGroupSizePerHostWeighting(t *testing.T) {
	// Groups {0,1,2} and {3}: host-weighted mean = (3+3+3+1)/4 = 2.5,
	// where the component mean would be (3+1)/2 = 2.
	a := Assign(4, [][2]int{{0, 1}, {1, 2}})
	if got := a.MeanGroupSizePerHost(); got != 2.5 {
		t.Errorf("MeanGroupSizePerHost = %v, want 2.5", got)
	}
}
