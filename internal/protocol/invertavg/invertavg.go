// Package invertavg implements the paper's Invert-Average protocol
// (§IV-B, Figure 7): a cheap running estimate of the network-wide sum
// obtained by running Count-Sketch-Reset (network size) and
// Push-Sum-Revert (network average) side by side and combining them.
//
// Note: Figure 7 prints the combination as A_v/netsize, but the §IV-B
// text is explicit — "the two values multiplied together are an
// estimate of the network-wide sum" — and Push-Sum-Revert estimates
// the average, so the product is the sum. We follow the text.
//
// The attraction over multiple-insertion summation is bandwidth: the
// averaging half costs two floats per message, orders of magnitude
// less than a sketch, and one sketch instance amortizes over any
// number of concurrent summations.
package invertavg

import (
	"fmt"
	"slices"

	"dynagg/internal/gossip"
	"dynagg/internal/protocol/pushsumrevert"
	"dynagg/internal/protocol/sketchreset"
	"dynagg/internal/xrand"
)

// payload wraps a sub-protocol message so Receive can route it.
type payload struct {
	count any // sketchreset payload, or nil
	avg   any // pushsumrevert payload, or nil
}

// Node runs one Count-Sketch-Reset host and one Push-Sum-Revert host
// at the same simulated device and reports the product of their
// estimates.
type Node struct {
	count *sketchreset.Node
	avg   *pushsumrevert.Node

	// wrapBuf holds EmitAppend's routing wrappers, reused across
	// rounds; envelopes point into it.
	wrapBuf []payload
}

var (
	_ gossip.Agent         = (*Node)(nil)
	_ gossip.Exchanger     = (*Node)(nil)
	_ gossip.AppendEmitter = (*Node)(nil)
)

// New returns an Invert-Average host with data value value.
func New(id gossip.NodeID, value float64, countCfg sketchreset.Config, avgCfg pushsumrevert.Config) *Node {
	if countCfg.Identifiers == 0 {
		countCfg.Identifiers = 1
	}
	return &Node{
		count: sketchreset.New(id, countCfg),
		avg:   pushsumrevert.New(id, value, avgCfg),
	}
}

// Count exposes the embedded Count-Sketch-Reset host.
func (n *Node) Count() *sketchreset.Node { return n.count }

// Avg exposes the embedded Push-Sum-Revert host.
func (n *Node) Avg() *pushsumrevert.Node { return n.avg }

// BeginRound implements gossip.Agent.
func (n *Node) BeginRound(round int) {
	n.count.BeginRound(round)
	n.avg.BeginRound(round)
}

// Emit implements gossip.Agent: EmitAppend with each routing wrapper and
// the sub-protocol payload inside it detached from host scratch, into
// the value forms the sub-protocols' own Emit returns.
func (n *Node) Emit(round int, rng *xrand.Rand, pick gossip.PeerPicker) []gossip.Envelope {
	out := n.EmitAppend(nil, round, rng, pick)
	for i := range out {
		pl := *out[i].Payload.(*payload)
		if c, ok := pl.count.(*sketchreset.Counters); ok {
			pl.count = slices.Clone(c.Ages)
		}
		if m, ok := pl.avg.(*pushsumrevert.Mass); ok {
			pl.avg = *m
		}
		out[i].Payload = pl
	}
	return out
}

// EmitAppend implements gossip.AppendEmitter: both sub-protocols emit,
// with payloads wrapped for routing. Peer selections are drawn
// independently, as if the protocols ran as separate gossip streams.
// The routing wrappers live in a per-host buffer reused across rounds —
// amortized zero allocation.
func (n *Node) EmitAppend(dst []gossip.Envelope, round int, rng *xrand.Rand, pick gossip.PeerPicker) []gossip.Envelope {
	start := len(dst)
	dst = n.count.EmitAppend(dst, round, rng, pick)
	mid := len(dst)
	dst = n.avg.EmitAppend(dst, round, rng, pick)
	need := len(dst) - start
	if cap(n.wrapBuf) < need {
		n.wrapBuf = make([]payload, need)
	}
	buf := n.wrapBuf[:need]
	for i := start; i < len(dst); i++ {
		w := &buf[i-start]
		if i < mid {
			*w = payload{count: dst[i].Payload}
		} else {
			*w = payload{avg: dst[i].Payload}
		}
		dst[i].Payload = w
	}
	return dst
}

// Receive implements gossip.Agent. Both the boxed payload of Emit and
// the scratch-backed *payload of EmitAppend are accepted.
func (n *Node) Receive(p any) {
	var pl payload
	switch v := p.(type) {
	case *payload:
		pl = *v
	case payload:
		pl = v
	default:
		panic(fmt.Sprintf("invertavg: unexpected payload %T", p))
	}
	if pl.count != nil {
		n.count.Receive(pl.count)
	}
	if pl.avg != nil {
		n.avg.Receive(pl.avg)
	}
}

// EndRound implements gossip.Agent.
func (n *Node) EndRound(round int) {
	n.count.EndRound(round)
	n.avg.EndRound(round)
}

// Exchange implements gossip.Exchanger: both sub-protocols exchange
// with the same peer.
func (n *Node) Exchange(peer gossip.Exchanger) {
	p := peer.(*Node)
	n.count.Exchange(p.count)
	n.avg.Exchange(p.avg)
}

// Estimate implements gossip.Agent: size × average = sum.
func (n *Node) Estimate() (float64, bool) {
	c, ok1 := n.count.Estimate()
	a, ok2 := n.avg.Estimate()
	if !ok1 || !ok2 {
		return 0, false
	}
	return c * a, true
}
