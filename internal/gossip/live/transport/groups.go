package transport

import (
	"fmt"
	"sort"

	"dynagg/internal/gossip"
)

// Group is one contiguous slice [Lo, Hi) of the host population that
// shares a single socket — the paper's picture of many sensors behind
// one radio. A process binds the groups it owns and addresses the rest
// by Addr.
type Group struct {
	Lo, Hi gossip.NodeID
	// Addr is the group's socket address. For a local group it is the
	// bind address ("127.0.0.1:0" picks an ephemeral port; read the
	// outcome with GroupAddr). For a remote group it may be left empty
	// at construction and supplied later via SetGroupAddr — messages
	// to a group with no known address are dropped, exactly like
	// transmissions to a host that is out of range.
	Addr string
}

// validateLayout checks a socket transport's group table — non-empty,
// every range non-empty, sorted by Lo, non-overlapping — and its local
// list: non-empty, every index in range, every local group carrying a
// bind address.
func validateLayout(groups []Group, local []int) error {
	if len(groups) == 0 {
		return fmt.Errorf("transport: no groups configured (see WithGroups)")
	}
	if len(local) == 0 {
		return fmt.Errorf("transport: no local groups configured (see WithLocal)")
	}
	for i, g := range groups {
		if g.Lo >= g.Hi {
			return fmt.Errorf("transport: group %d range [%d,%d) is empty", i, g.Lo, g.Hi)
		}
		if i > 0 && g.Lo < groups[i-1].Hi {
			return fmt.Errorf("transport: group %d overlaps or is unsorted", i)
		}
	}
	for _, gi := range local {
		if gi < 0 || gi >= len(groups) {
			return fmt.Errorf("transport: local group index %d out of range", gi)
		}
		if groups[gi].Addr == "" {
			return fmt.Errorf("transport: local group %d needs a bind address", gi)
		}
	}
	return nil
}

// localSpans returns the local groups of a validated layout, sorted by
// Lo — the spans a transport's receive plane queues for.
func localSpans(groups []Group, local []int) []Group {
	spans := make([]Group, len(local))
	for i, gi := range local {
		spans[i] = groups[gi]
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Lo < spans[j].Lo })
	return spans
}

// groupOf locates the group owning a host in a table sorted by Lo, or
// -1.
func groupOf(gs []Group, id gossip.NodeID) int {
	i := sort.Search(len(gs), func(i int) bool { return gs[i].Hi > id })
	if i < len(gs) && id >= gs[i].Lo {
		return i
	}
	return -1
}

// contiguousGroups lays hosts [0, hosts) out as n contiguous groups
// (n clamped to [1, hosts]), each at addr — the single-process layout
// behind NewChannelGroups and WithLoopbackGroups.
func contiguousGroups(hosts, n int, addr string) []Group {
	if n > hosts {
		n = hosts
	}
	if n <= 0 {
		n = 1
	}
	gs := make([]Group, n)
	for g := range gs {
		gs[g] = Group{
			Lo:   gossip.NodeID(g * hosts / n),
			Hi:   gossip.NodeID((g + 1) * hosts / n),
			Addr: addr,
		}
	}
	return gs
}
