package overlay

import (
	"testing"

	"dynagg/internal/gossip"
)

// lineTopo is a path topology 0-1-2-...-n-1 with controllable liveness.
type lineTopo struct {
	n    int
	dead map[gossip.NodeID]bool
}

func newLine(n int) *lineTopo { return &lineTopo{n: n, dead: map[gossip.NodeID]bool{}} }

func (l *lineTopo) Size() int                   { return l.n }
func (l *lineTopo) Alive(id gossip.NodeID) bool { return !l.dead[id] }
func (l *lineTopo) Neighbors(id gossip.NodeID) []gossip.NodeID {
	var out []gossip.NodeID
	if id > 0 {
		out = append(out, id-1)
	}
	if int(id) < l.n-1 {
		out = append(out, id+1)
	}
	return out
}

// starTopo connects every host to host 0.
type starTopo struct {
	n    int
	dead map[gossip.NodeID]bool
}

func newStar(n int) *starTopo { return &starTopo{n: n, dead: map[gossip.NodeID]bool{}} }

func (s *starTopo) Size() int                   { return s.n }
func (s *starTopo) Alive(id gossip.NodeID) bool { return !s.dead[id] }
func (s *starTopo) Neighbors(id gossip.NodeID) []gossip.NodeID {
	if id == 0 {
		out := make([]gossip.NodeID, 0, s.n-1)
		for i := 1; i < s.n; i++ {
			out = append(out, gossip.NodeID(i))
		}
		return out
	}
	return []gossip.NodeID{0}
}

func TestBuildValidation(t *testing.T) {
	topo := newLine(5)
	if _, err := Build(topo, 9); err == nil {
		t.Error("out-of-range root accepted")
	}
	topo.dead[2] = true
	if _, err := Build(topo, 2); err == nil {
		t.Error("dead root accepted")
	}
}

func TestBuildLine(t *testing.T) {
	topo := newLine(5)
	tree, err := Build(topo, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Order) != 5 {
		t.Errorf("reached %d, want 5", len(tree.Order))
	}
	if tree.MaxDepth() != 4 {
		t.Errorf("MaxDepth = %d, want 4", tree.MaxDepth())
	}
	for i := 1; i < 5; i++ {
		if tree.Parent[i] != gossip.NodeID(i-1) {
			t.Errorf("Parent[%d] = %d, want %d", i, tree.Parent[i], i-1)
		}
		if tree.Depth[i] != i {
			t.Errorf("Depth[%d] = %d, want %d", i, tree.Depth[i], i)
		}
	}
	if tree.Parent[0] != -1 || tree.Depth[0] != 0 {
		t.Error("root bookkeeping wrong")
	}
}

func TestBuildSkipsDeadAndUnreachable(t *testing.T) {
	topo := newLine(5)
	topo.dead[2] = true // severs 3,4 from root 0
	tree, err := Build(topo, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Order) != 2 {
		t.Errorf("reached %d, want 2 (hosts 0,1)", len(tree.Order))
	}
	if tree.Depth[3] != -1 || tree.Depth[4] != -1 {
		t.Error("unreachable hosts appear in tree")
	}
}

func TestCollectExactOnStaticNetwork(t *testing.T) {
	topo := newStar(10)
	tree, err := Build(topo, 0)
	if err != nil {
		t.Fatal(err)
	}
	values := make([]float64, 10)
	var want float64
	for i := range values {
		values[i] = float64(i * i)
		want += values[i]
	}
	res := tree.Collect(values, func(gossip.NodeID) bool { return true })
	if res.Sum != want || res.Count != 10 || res.Lost != 0 {
		t.Errorf("Collect = %+v, want sum %v count 10 lost 0", res, want)
	}
	if res.Average() != want/10 {
		t.Errorf("Average = %v, want %v", res.Average(), want/10)
	}
	if res.Rounds != tree.MaxDepth() {
		t.Errorf("Rounds = %d, want depth %d", res.Rounds, tree.MaxDepth())
	}
}

// The failure mode the paper describes: a host failing between Build
// and Collect silently drops its whole subtree.
func TestCollectDropsSubtreeOfDeadHost(t *testing.T) {
	topo := newLine(5) // 0-1-2-3-4, tree rooted at 0
	tree, err := Build(topo, 0)
	if err != nil {
		t.Fatal(err)
	}
	values := []float64{1, 1, 1, 1, 1}
	alive := func(id gossip.NodeID) bool { return id != 2 }
	res := tree.Collect(values, alive)
	// Hosts 3 and 4 forward through dead 2: lost. Root collects 0,1.
	if res.Count != 2 {
		t.Errorf("Count = %d, want 2", res.Count)
	}
	if res.Sum != 2 {
		t.Errorf("Sum = %v, want 2", res.Sum)
	}
	if res.Lost == 0 {
		t.Error("no loss recorded despite dead interior host")
	}
}

func TestCollectDeadRoot(t *testing.T) {
	topo := newStar(4)
	tree, err := Build(topo, 0)
	if err != nil {
		t.Fatal(err)
	}
	values := []float64{1, 1, 1, 1}
	res := tree.Collect(values, func(id gossip.NodeID) bool { return id != 0 })
	if res.Count != 0 || res.Sum != 0 {
		t.Errorf("dead root collected %+v", res)
	}
	if res.Lost != 3 {
		t.Errorf("Lost = %d, want 3", res.Lost)
	}
	if res.Average() != 0 {
		t.Errorf("Average with empty count = %v, want 0", res.Average())
	}
}

func TestCollectSingleHost(t *testing.T) {
	topo := newStar(1)
	tree, err := Build(topo, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := tree.Collect([]float64{42}, func(gossip.NodeID) bool { return true })
	if res.Sum != 42 || res.Count != 1 || res.Rounds != 0 {
		t.Errorf("single-host collect = %+v", res)
	}
}
