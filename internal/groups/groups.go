// Package groups computes the paper's notion of "nearby" hosts for
// trace-driven runs: two hosts belong to the same group when a path
// exists between them over the union of all links that have been up at
// any point during the last 10 minutes (§V). Ground truth for the
// trace experiments is computed per group, and each host's error is
// measured against its own group's aggregate.
package groups

// DefaultWindow is the paper's 10-minute edge-union horizon, in
// seconds.
const DefaultWindowSeconds = 600

// Assignment maps each device to its group index. Group indices are
// dense, starting at 0, ordered by each group's smallest member.
type Assignment struct {
	group []int
	sizes []int
}

// Assign partitions n devices into connected components over the given
// undirected edges.
func Assign(n int, edges [][2]int) Assignment {
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if ra > rb {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	for _, e := range edges {
		union(e[0], e[1])
	}
	// Densify group ids in order of smallest member.
	group := make([]int, n)
	next := 0
	id := make(map[int]int, n)
	for i := 0; i < n; i++ {
		root := find(i)
		g, ok := id[root]
		if !ok {
			g = next
			id[root] = g
			next++
		}
		group[i] = g
	}
	sizes := make([]int, next)
	for _, g := range group {
		sizes[g]++
	}
	return Assignment{group: group, sizes: sizes}
}

// N returns the number of devices.
func (a Assignment) N() int { return len(a.group) }

// Groups returns the number of groups.
func (a Assignment) Groups() int { return len(a.sizes) }

// GroupOf returns the group index of device i.
func (a Assignment) GroupOf(i int) int { return a.group[i] }

// SizeOf returns the number of devices in group g.
func (a Assignment) SizeOf(g int) int { return a.sizes[g] }

// Members returns the devices in group g in ascending order.
func (a Assignment) Members(g int) []int {
	out := make([]int, 0, a.sizes[g])
	for i, gi := range a.group {
		if gi == g {
			out = append(out, i)
		}
	}
	return out
}

// MeanGroupSizePerHost returns the average, over hosts, of the size of
// the host's own group — the "average peer count" series plotted
// alongside Figure 11. (Larger groups weigh more because more hosts
// experience them.)
func (a Assignment) MeanGroupSizePerHost() float64 {
	if len(a.group) == 0 {
		return 0
	}
	var sum int
	for _, g := range a.group {
		sum += a.sizes[g]
	}
	return float64(sum) / float64(len(a.group))
}
