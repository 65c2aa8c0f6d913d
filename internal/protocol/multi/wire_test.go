package multi

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"dynagg/internal/gossip"
	"dynagg/internal/protocol/pushsumrevert"
	"dynagg/internal/protocol/sketchreset"
	"dynagg/internal/sketch"
)

// hostState renders everything a Receive can change, read after
// EndRound: the name set, every aggregate's local value, mass and
// estimate, and the sketch host's whole counter matrix and estimate.
func hostState(n *Node) string {
	var sb strings.Builder
	for _, name := range n.Names() {
		agg, _ := n.Agg(name)
		est, ok := agg.Estimate()
		fmt.Fprintf(&sb, "%s: v0=%v mass=%v est=%v/%v\n", name, agg.Value(), agg.Mass(), est, ok)
	}
	p := sketch.DefaultParams
	for bin := 0; bin < p.Bins; bin++ {
		for level := 0; level < p.Levels; level++ {
			fmt.Fprintf(&sb, "%d ", n.Count().CounterAt(bin, level))
		}
	}
	size, ok := n.Size()
	fmt.Fprintf(&sb, "\nsize=%v/%v", size, ok)
	return sb.String()
}

// TestPackedReceiveMatchesBundleReceive is the property the packed
// payload rests on: delivering a bundle in its wire form leaves a host
// in exactly the state delivering the materialised Bundle does — on a
// regular host with a resolver, one without, and an observer; for
// bundles naming known and unknown aggregates, with a sketch, without
// one, and with a sketch of the wrong shape.
func TestPackedReceiveMatchesBundleReceive(t *testing.T) {
	countCfg := sketchreset.Config{Params: sketch.DefaultParams}
	avgCfg := pushsumrevert.Config{Lambda: 0.1}
	resolver := func(name string) (float64, bool) {
		if strings.HasPrefix(name, "no-") {
			return 0, false
		}
		return float64(len(name)), true
	}
	kinds := map[string]func() *Node{
		"resolver": func() *Node {
			n := New(4, map[string]float64{"load": 3, "temp": -1}, countCfg, avgCfg)
			n.SetResolver(resolver)
			return n
		},
		"plain":    func() *Node { return New(4, map[string]float64{"load": 3, "temp": -1}, countCfg, avgCfg) },
		"observer": func() *Node { return NewObserver(4, []string{"load"}, countCfg, avgCfg) },
		"adaptive": func() *Node {
			return New(4, map[string]float64{"load": 3}, countCfg, pushsumrevert.Config{Lambda: 0.1, Adaptive: true})
		},
	}
	pool := []string{"", "a", "load", "mem", "no-entry", "temp", "zz-" + strings.Repeat("long", 60)}
	for kind, mk := range kinds {
		t.Run(kind, func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			viaBundle, viaPacked := mk(), mk()
			// A peer population to take realistic matrices from.
			peers := make([]*sketchreset.Node, 8)
			for i := range peers {
				peers[i] = sketchreset.New(gossip.NodeID(10+i), sketchreset.Config{Params: sketch.DefaultParams, Identifiers: 1})
			}
			for round := 0; round < 30; round++ {
				viaBundle.BeginRound(round)
				viaPacked.BeginRound(round)
				for _, p := range peers {
					p.BeginRound(round)
					p.Exchange(peers[rng.Intn(len(peers))])
				}
				for k := rng.Intn(4); k > 0; k-- {
					var b Bundle
					for _, name := range pool {
						if rng.Intn(3) == 0 {
							b.Masses = append(b.Masses, NamedMass{name, pushsumrevert.Mass{W: rng.Float64(), V: rng.NormFloat64()}})
						}
					}
					switch rng.Intn(4) {
					case 0:
					case 1:
						b.Count = make([]uint8, 7) // another deployment's shape
					default:
						env := peers[rng.Intn(len(peers))].Emit(round, nil, func() (gossip.NodeID, bool) { return 4, true })
						b.Count = env[0].Payload
					}
					enc, err := AppendBundle([]byte{0xAA}, &b)
					if err != nil {
						t.Fatal(err)
					}
					packed, err := NewPacked(append(enc[1:], 0xEE))
					if err != nil {
						t.Fatalf("NewPacked rejected AppendBundle's output: %v", err)
					}
					if len(packed.body) != len(enc)-1 {
						t.Fatalf("packed body is %d bytes, encoding %d", len(packed.body), len(enc)-1)
					}
					var names []string
					for name := range packed.Names() {
						names = append(names, string(name))
					}
					if !slices.EqualFunc(names, b.Masses, func(s string, m NamedMass) bool { return s == m.Name }) {
						t.Fatalf("Names() = %q, bundle carries %v", names, b.Masses)
					}
					viaBundle.Receive(b)
					viaPacked.Receive(packed)
				}
				viaBundle.EndRound(round)
				viaPacked.EndRound(round)
				if got, want := hostState(viaPacked), hostState(viaBundle); got != want {
					t.Fatalf("round %d: packed Receive left\n%s\nBundle Receive left\n%s", round, got, want)
				}
			}
		})
	}
}

// TestEmitAllocBudget pins the deployable path's per-host, per-tick
// garbage: the envelope slice, and per bundle its boxed value, its
// mass slice and (for the one carrying the sketch) the snapshot and
// its slice header.
func TestEmitAllocBudget(t *testing.T) {
	n := New(0, map[string]float64{"load": 1, "temp": 2, "mem": 3},
		sketchreset.Config{Params: sketch.DefaultParams}, pushsumrevert.Config{Lambda: 0.05})
	pick := func() (gossip.NodeID, bool) { return 1, true }
	n.Emit(0, nil, pick) // grow the scratch once
	if got := testing.AllocsPerRun(100, func() { n.Emit(1, nil, pick) }); got > 8 {
		t.Errorf("Emit allocates %v times per call, budget 8", got)
	}
}

// TestEmitMakesNoMatrixGarbage pins what Emit's payloads cost now that
// they alias the host's scratch: a steady-state Emit of a 12-name host
// over the default 64×24 sketch allocates only the boxes that carry the
// bundles through Envelope.Payload — no counter snapshot (1,536 B), no
// mass slice, no envelope slice. Those are two boxes, the peer's bundle
// and the self bundle: the matrix's slice header is boxed once per
// host, not once per call.
func TestEmitMakesNoMatrixGarbage(t *testing.T) {
	values := make(map[string]float64, 12)
	for i := range 12 {
		values[fmt.Sprintf("agg-%02d", i)] = float64(i)
	}
	n := New(0, values, sketchreset.Config{Params: sketch.DefaultParams}, pushsumrevert.Config{Lambda: 0.05})
	pick := func() (gossip.NodeID, bool) { return 1, true }
	n.BeginRound(0)
	n.Emit(0, nil, pick) // grow the scratch once
	const calls = 1000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for r := 1; r <= calls; r++ {
		n.BeginRound(r)
		n.Emit(r, nil, pick)
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / calls; perCall >= 256 {
		t.Errorf("Emit allocates %d B per call, budget < 256 B", perCall)
	}
	r := calls
	if got := testing.AllocsPerRun(100, func() { r++; n.BeginRound(r); n.Emit(r, nil, pick) }); got > 2 {
		t.Errorf("Emit allocates %v times per call, budget 2", got)
	}
}

// TestBundleDetachIsIndependent pins what a holder of an Emit payload
// relies on: the detached bundle owns its memory, so the host's next
// round — BeginRound, a Receive, Emit — rewrites the emitted bundle's
// scratch and leaves the detached copy as it was.
func TestBundleDetachIsIndependent(t *testing.T) {
	countCfg := sketchreset.Config{Params: sketch.DefaultParams, Identifiers: 1}
	avgCfg := pushsumrevert.Config{Lambda: 0.05}
	host := New(0, map[string]float64{"load": 3, "temp": -1}, countCfg, avgCfg)
	peer := New(7, map[string]float64{"load": 40, "temp": 9}, sketchreset.Config{Params: sketch.DefaultParams, Identifiers: 16}, avgCfg)
	pick := func() (gossip.NodeID, bool) { return 1, true }

	host.BeginRound(0)
	var emitted Bundle
	for _, env := range host.Emit(0, nil, pick) {
		if b := env.Payload.(Bundle); b.Count != nil {
			emitted = b
		}
	}
	if emitted.Count == nil {
		t.Fatal("no bundle carried the sketch")
	}
	detached, ok := emitted.Detach().(Bundle)
	if !ok {
		t.Fatalf("Detach returned %T, want Bundle", emitted.Detach())
	}
	want := Bundle{Count: slices.Clone(emitted.Count.([]uint8)), Masses: slices.Clone(emitted.Masses)}
	if diff := bundleDiff(detached, want); diff != "" {
		t.Fatalf("detached bundle differs from the emitted one: %s", diff)
	}

	host.BeginRound(1)
	peer.BeginRound(1)
	for _, env := range peer.Emit(1, nil, func() (gossip.NodeID, bool) { return 0, true }) {
		host.Receive(env.Payload)
	}
	host.Emit(1, nil, pick)
	if bundleDiff(emitted, want) == "" {
		t.Fatal("the next round left the emitted bundle's scratch as it was; the test shows nothing")
	}
	if diff := bundleDiff(detached, want); diff != "" {
		t.Errorf("the host's next round changed the detached bundle: %s", diff)
	}
}

// bundleDiff describes the first difference between two bundles with
// []uint8 matrices, or returns "" when they are equal.
func bundleDiff(got, want Bundle) string {
	g, w := got.Count.([]uint8), want.Count.([]uint8)
	if !slices.Equal(g, w) {
		for j := range min(len(g), len(w)) {
			if g[j] != w[j] {
				return fmt.Sprintf("counter %d is %d, want %d", j, g[j], w[j])
			}
		}
		return fmt.Sprintf("matrix has %d counters, want %d", len(g), len(w))
	}
	if !slices.Equal(got.Masses, want.Masses) {
		return fmt.Sprintf("masses %v, want %v", got.Masses, want.Masses)
	}
	return ""
}
