// Package multi implements the full Invert-Average deployment of the
// paper's Figure 7: one Count-Sketch-Reset instance amortized over any
// number of named Push-Sum-Revert aggregates.
//
//  1. Compute netsize_t := Count-Sketch-Reset()
//  2. For each desired value v, compute A_v,t := Push-Sum-Revert(v)
//  3. Estimate_v,t := A_v,t × netsize_t
//
// This is the arrangement §IV-B argues for: the counter matrix is by
// far the most expensive payload (see internal/wire and ablation A9),
// and its cost is paid once no matter how many sums ride on top. Each
// additional aggregate costs two floats per message.
//
// Every named aggregate yields both a running average (the raw
// Push-Sum-Revert estimate) and a running sum (average × size). With
// one name, Sum is the paper's Invert-Average estimate (§IV-B).
//
// Two deployment extensions support a query gateway (internal/gateway):
// NewObserver builds a host that owns no sketch identifiers and whose
// aggregates carry zero weight, so it converges to the population's
// answers without perturbing them; Register and SetResolver let new
// named aggregates appear at runtime and spread epidemically — a host
// that receives mass for a name it has never seen asks its resolver
// for a local value and joins that aggregate on the spot.
package multi

import (
	"slices"
	"sort"

	"dynagg/internal/gossip"
	"dynagg/internal/protocol/pushsumrevert"
	"dynagg/internal/protocol/sketchreset"
	"dynagg/internal/xrand"
)

// Bundle routes sub-protocol messages: the sketch matrix and one mass
// per named aggregate. It is the package's gossiped payload type;
// AppendBundle is its wire form (see wire.go).
type Bundle struct {
	// Count is the sketchreset payload, or nil when the sketch does
	// not ride this envelope.
	Count any
	// Masses holds one Push-Sum-Revert mass per aggregate, in ascending
	// name order with no name twice — the order hosts iterate in and
	// the order the wire form carries.
	Masses []NamedMass
}

// Detach implements gossip.Detacher: a Bundle that owns its memory,
// the mass slice and the counter matrix copied out of the emitting
// host's scratch. A holder that keeps an Emit payload past the
// emitter's next BeginRound (an in-process queue, a delayed delivery)
// calls it; a transport that encodes inside Send does not need to.
func (b Bundle) Detach() any {
	d := Bundle{Count: b.Count, Masses: slices.Clone(b.Masses)}
	switch c := b.Count.(type) {
	case []uint8:
		d.Count = slices.Clone(c)
	case *sketchreset.Counters:
		d.Count = slices.Clone(c.Ages)
	}
	return d
}

// NamedMass is one aggregate's share of a bundle.
type NamedMass struct {
	Name string
	Mass pushsumrevert.Mass
}

// outBundle is one destination's accumulated payload in the emission
// scratch.
type outBundle struct {
	to gossip.NodeID
	p  Bundle
}

// Node runs one Count-Sketch-Reset host plus one Push-Sum-Revert host
// per named aggregate at the same simulated device.
type Node struct {
	id     gossip.NodeID
	count  *sketchreset.Node
	aggs   map[string]*pushsumrevert.Node
	names  []string // sorted, for deterministic iteration
	avgCfg pushsumrevert.Config

	// observer marks a zero-contribution host: its aggregates carry no
	// mass and unknown incoming names auto-register as observers too.
	observer bool
	// resolver supplies this host's local value when mass arrives for
	// an unregistered aggregate name; nil means unknown names are
	// dropped (non-observer) — the pre-gateway behavior.
	resolver func(name string) (float64, bool)

	// Emission scratch, reused across rounds: sub-protocol emissions
	// and per-destination bundles (mass slices truncated, not
	// reallocated).
	subBuf  []gossip.Envelope
	bundles []outBundle
	// envs is Emit's envelope slice, reused across rounds.
	envs []gossip.Envelope
	// countBox is the sketch host's snapshot matrix boxed once for
	// Bundle.Count: the buffer is made on the first emission and never
	// moves, so Emit need not box it again every round.
	countBox any
	// rx stages one mass decoded from a packed bundle, so handing it to
	// the aggregate by pointer allocates nothing.
	rx pushsumrevert.Mass
}

var (
	_ gossip.Agent         = (*Node)(nil)
	_ gossip.Exchanger     = (*Node)(nil)
	_ gossip.AppendEmitter = (*Node)(nil)
)

// refuseFullTransfer panics on a Full-Transfer averaging config, which
// every constructor refuses: all aggregates share one peer per round,
// so the N parcels would land in one bundle that keeps one of them,
// and Full-Transfer retains nothing at home.
func refuseFullTransfer(avgCfg pushsumrevert.Config) {
	if avgCfg.FullTransfer {
		panic("multi: FullTransfer averaging is not supported (one shared peer collapses the parcels into one bundle)")
	}
}

// New returns a multi-aggregate host. values maps aggregate names to
// this host's data value for that aggregate; all hosts must register
// the same name set (or rely on SetResolver to converge on it).
// FullTransfer averaging configs are refused.
func New(id gossip.NodeID, values map[string]float64, countCfg sketchreset.Config, avgCfg pushsumrevert.Config) *Node {
	if len(values) == 0 {
		panic("multi: no aggregates registered")
	}
	refuseFullTransfer(avgCfg)
	if countCfg.Identifiers == 0 {
		countCfg.Identifiers = 1
	}
	n := &Node{
		id:     id,
		count:  sketchreset.New(id, countCfg),
		aggs:   make(map[string]*pushsumrevert.Node, len(values)),
		avgCfg: avgCfg,
	}
	for name, v := range values {
		n.aggs[name] = pushsumrevert.New(id, v, avgCfg)
		n.names = append(n.names, name)
	}
	sort.Strings(n.names)
	return n
}

// NewObserver returns a read-only multi-aggregate host: it owns zero
// sketch identifiers (so it relays the size sketch without counting as
// a member) and each named aggregate is a zero-weight Push-Sum-Revert
// observer. names may be empty — mass arriving for any name the
// observer has not seen auto-registers a zero-weight aggregate, so an
// observer discovers the population's aggregate set by listening.
// FullTransfer averaging configs are refused, as by New.
func NewObserver(id gossip.NodeID, names []string, countCfg sketchreset.Config, avgCfg pushsumrevert.Config) *Node {
	refuseFullTransfer(avgCfg)
	countCfg.Identifiers = 0
	n := &Node{
		id:       id,
		count:    sketchreset.New(id, countCfg),
		aggs:     make(map[string]*pushsumrevert.Node, len(names)),
		avgCfg:   avgCfg,
		observer: true,
	}
	for _, name := range names {
		if _, ok := n.aggs[name]; ok {
			continue
		}
		n.aggs[name] = pushsumrevert.NewObserver(id, avgCfg)
		n.names = append(n.names, name)
	}
	sort.Strings(n.names)
	return n
}

// Observer reports whether this host was built by NewObserver.
func (n *Node) Observer() bool { return n.observer }

// Register adds a named aggregate at runtime and reports whether it
// was new. On a regular host the aggregate starts with this host's
// local value and unit weight; on an observer the value is ignored and
// the aggregate starts empty (zero weight). A host registered
// mid-round simply starts gossiping the name on its next emission;
// Push-Sum-Revert's reversion absorbs the transient mass imbalance, so
// the new aggregate spreads epidemically with no epoch coordination.
func (n *Node) Register(name string, value float64) bool {
	if _, ok := n.aggs[name]; ok {
		return false
	}
	if n.observer {
		n.aggs[name] = pushsumrevert.NewObserver(n.id, n.avgCfg)
	} else {
		n.aggs[name] = pushsumrevert.New(n.id, value, n.avgCfg)
	}
	i, _ := slices.BinarySearch(n.names, name)
	n.names = slices.Insert(n.names, i, name)
	return true
}

// SetResolver installs the callback consulted when mass arrives for an
// unregistered aggregate name. Returning (v, true) registers the name
// with local value v before the mass is delivered; returning false
// drops the mass. Observers never need a resolver — they auto-register
// unknown names as zero-weight aggregates.
func (n *Node) SetResolver(f func(name string) (float64, bool)) { n.resolver = f }

// ID returns the host id.
func (n *Node) ID() gossip.NodeID { return n.id }

// Names returns the registered aggregate names in sorted order.
func (n *Node) Names() []string {
	out := make([]string, len(n.names))
	copy(out, n.names)
	return out
}

// Count exposes the shared Count-Sketch-Reset host.
func (n *Node) Count() *sketchreset.Node { return n.count }

// Agg exposes the Push-Sum-Revert host for one aggregate.
func (n *Node) Agg(name string) (*pushsumrevert.Node, bool) {
	a, ok := n.aggs[name]
	return a, ok
}

// BeginRound implements gossip.Agent.
func (n *Node) BeginRound(round int) {
	n.count.BeginRound(round)
	for _, name := range n.names {
		n.aggs[name].BeginRound(round)
	}
}

// Emit implements gossip.Agent. All sub-protocols address the same
// peer per envelope slot so the combined state travels as one radio
// message; the sketch payload rides with the peer's bundle. The
// envelopes are the gather EmitAppend performs, as Bundle values whose
// Count is the sketch host's []uint8 snapshot and whose Masses is the
// emission scratch: like the envelope slice, they alias the host's
// memory until its next BeginRound (Bundle.Detach copies them out).
func (n *Node) Emit(round int, rng *xrand.Rand, pick gossip.PeerPicker) []gossip.Envelope {
	n.gather(round, rng, pick)
	out := n.envs[:0]
	for i := range n.bundles {
		b := n.bundles[i].p
		if c, ok := b.Count.(*sketchreset.Counters); ok {
			if n.countBox == nil {
				n.countBox = c.Ages
			}
			b.Count = n.countBox
		}
		out = append(out, gossip.Envelope{To: n.bundles[i].to, Payload: b})
	}
	n.envs = out
	return out
}

// bundleFor returns the reusable bundle accumulating payload parts for
// one destination, creating (or recycling) it on first use. Linear
// search is fine: a round emits to at most a handful of destinations.
func (n *Node) bundleFor(to gossip.NodeID) *Bundle {
	for i := range n.bundles {
		if n.bundles[i].to == to {
			return &n.bundles[i].p
		}
	}
	if len(n.bundles) < cap(n.bundles) {
		n.bundles = n.bundles[:len(n.bundles)+1]
	} else {
		n.bundles = append(n.bundles, outBundle{})
	}
	b := &n.bundles[len(n.bundles)-1]
	b.to = to
	b.p.Count = nil
	b.p.Masses = b.p.Masses[:0]
	return &b.p
}

// gather runs one round's emission into n.bundles: sub-protocols emit
// through their own EmitAppend into a reusable scratch slice, payload
// parts are grouped into per-destination bundles and the bundles left
// in ascending-destination order. All aggregates share one peer choice
// per round: it is drawn once and served to every sub-protocol, while
// Push-Sum-Revert's self-share still goes home.
func (n *Node) gather(round int, rng *xrand.Rand, pick gossip.PeerPicker) {
	var chosen gossip.NodeID
	havePeer := false
	sharedPick := func() (gossip.NodeID, bool) {
		if !havePeer {
			chosen, havePeer = pick()
			if !havePeer {
				return 0, false
			}
		}
		return chosen, true
	}
	n.bundles = n.bundles[:0]
	sub := n.subBuf[:0]
	start := 0
	for _, name := range n.names {
		sub = n.aggs[name].EmitAppend(sub, round, rng, sharedPick)
		// Without FullTransfer each name sends at most one parcel per
		// destination, and names arrive in ascending order.
		for _, env := range sub[start:] {
			b := n.bundleFor(env.To)
			b.Masses = append(b.Masses, NamedMass{Name: name, Mass: *env.Payload.(*pushsumrevert.Mass)})
		}
		start = len(sub)
	}
	sub = n.count.EmitAppend(sub, round, rng, sharedPick)
	for _, env := range sub[start:] {
		n.bundleFor(env.To).Count = env.Payload
	}
	n.subBuf = sub
	slices.SortFunc(n.bundles, func(a, b outBundle) int {
		return int(a.to) - int(b.to)
	})
}

// EmitAppend implements gossip.AppendEmitter: one envelope per
// destination, in ascending-destination order, whose payloads point
// into the host's reusable scratch — amortized zero allocation.
func (n *Node) EmitAppend(dst []gossip.Envelope, round int, rng *xrand.Rand, pick gossip.PeerPicker) []gossip.Envelope {
	n.gather(round, rng, pick)
	// Pointers are taken only now, after sorting has stopped moving the
	// bundle values.
	for i := range n.bundles {
		dst = append(dst, gossip.Envelope{To: n.bundles[i].to, Payload: &n.bundles[i].p})
	}
	return dst
}

// Receive implements gossip.Agent. The Bundle of Emit (or its
// detached copy), the *Bundle of EmitAppend and the wire-form *Packed
// a socket transport delivers are accepted; any other payload is
// ignored. Mass for an unregistered name auto-registers it on an
// observer, consults the resolver on a regular host, and is otherwise
// dropped.
func (n *Node) Receive(p any) {
	var pl Bundle
	switch v := p.(type) {
	case *Packed:
		n.receivePacked(v)
		return
	case *Bundle:
		pl = *v
	case Bundle:
		pl = v
	default:
		return
	}
	if pl.Count != nil {
		n.count.Receive(pl.Count)
	}
	for i := range pl.Masses {
		if agg := n.aggFor(pl.Masses[i].Name); agg != nil {
			agg.Receive(&pl.Masses[i].Mass)
		}
	}
}

// aggFor returns the aggregate mass for name should be delivered to,
// registering the name first where the host's role calls for it, or
// nil when the mass is to be dropped.
func (n *Node) aggFor(name string) *pushsumrevert.Node {
	if agg, ok := n.aggs[name]; ok {
		return agg
	}
	if n.observer {
		n.Register(name, 0)
	} else if n.resolver != nil {
		v, have := n.resolver(name)
		if !have {
			return nil
		}
		n.Register(name, v)
	} else {
		return nil
	}
	return n.aggs[name]
}

// EndRound implements gossip.Agent.
func (n *Node) EndRound(round int) {
	n.count.EndRound(round)
	for _, name := range n.names {
		n.aggs[name].EndRound(round)
	}
}

// Exchange implements gossip.Exchanger: all sub-protocols exchange
// with the same peer.
func (n *Node) Exchange(peer gossip.Exchanger) {
	p := peer.(*Node)
	n.count.Exchange(p.count)
	for _, name := range n.names {
		if other, ok := p.aggs[name]; ok {
			n.aggs[name].Exchange(other)
		}
	}
}

// Size returns the host's running network-size estimate.
func (n *Node) Size() (float64, bool) { return n.count.Estimate() }

// Average returns the host's running average estimate for one named
// aggregate.
func (n *Node) Average(name string) (float64, bool) {
	agg, ok := n.aggs[name]
	if !ok {
		return 0, false
	}
	return agg.Estimate()
}

// Sum returns the host's running sum estimate for one named aggregate:
// average × network size (Figure 7 step 3).
func (n *Node) Sum(name string) (float64, bool) {
	avg, ok1 := n.Average(name)
	size, ok2 := n.Size()
	if !ok1 || !ok2 {
		return 0, false
	}
	return avg * size, true
}

// Estimate implements gossip.Agent, reporting the network-size
// estimate (the only aggregate every Node shares); named aggregates
// are read through Average and Sum.
func (n *Node) Estimate() (float64, bool) { return n.Size() }
