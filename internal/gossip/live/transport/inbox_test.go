package transport

import (
	"math"
	"testing"

	"dynagg/internal/gossip"
	"dynagg/internal/protocol/multi"
	"dynagg/internal/protocol/pushsumrevert"
	"dynagg/internal/protocol/sketchreset"
	"dynagg/internal/sketch"
	"dynagg/internal/wire"
)

// FuzzInboxDeliver attacks the one place socket bytes become queued
// messages. Whatever arrives — repeated past queue capacity, so the
// shed path runs too — must not panic, must land only on the local
// host or span it addresses, must never hold more than the queue
// capacity, and must charge Dropped at most once per delivery unless
// it is a batch whose message count its own body makes plausible.
// Every host payload it queues is then handed to a Push-Sum-Revert, a
// Count-Sketch-Reset and a multi host, whose Receive must not panic on
// it whichever protocol's it is.
func FuzzInboxDeliver(f *testing.F) {
	env, _ := appendEnvelope(nil, 9, 1, 3, pushsumrevert.Mass{W: 0.5, V: 2})
	f.Add(env)
	f.Add(env[:len(env)-3])
	ages := make([]uint8, sketch.DefaultParams.Bins*sketch.DefaultParams.Levels)
	counters, _ := appendEnvelope(nil, 9, 2, 3, &sketchreset.Counters{Ages: ages})
	f.Add(counters)
	bundle, _ := appendEnvelope(nil, 9, 3, 3, &multi.Bundle{Count: ages, Masses: []multi.NamedMass{{Name: "a", Mass: pushsumrevert.Mass{W: 1, V: 2}}}})
	f.Add(bundle)
	f.Add(append(wire.AppendHeader(nil, wire.Header{Kind: kindColumnarBatch, To: 8, From: 2}), 1, 5, 6))
	f.Add(append(wire.AppendHeader(nil, wire.Header{Kind: kindColumnarBatch, To: 0, From: math.MaxInt32}), 1, 2, 3))
	f.Add(append(wire.AppendHeader(nil, wire.Header{Kind: kindColumnarBatch, To: 5, From: 1}), 1, 2))
	f.Add(wire.AppendHeader(nil, wire.Header{Kind: 200, To: 2}))
	count := sketchreset.Config{Params: sketch.DefaultParams, Identifiers: 1}
	receivers := []gossip.Agent{
		pushsumrevert.New(0, 1, pushsumrevert.Config{Lambda: 0.1}),
		sketchreset.New(0, count),
		multi.New(0, map[string]float64{"a": 1}, count, pushsumrevert.Config{Lambda: 0.1}),
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h, body, err := wire.DecodeHeader(data)
		if err != nil {
			return // the readers count an unparseable header themselves
		}
		const capacity = 2
		spans := []Group{{Lo: 0, Hi: 4}, {Lo: 8, Hi: 12}}
		in := newInbox(spans, capacity)
		batch := h.Kind == kindColumnarBatch
		limit := int64(1)
		if batch && int(h.From) < len(body) {
			limit = int64(h.From)
		}
		for i := 0; i < capacity+2; i++ {
			before := in.dropped.Load()
			in.deliver(h, body)
			if charged := in.dropped.Load() - before; charged > limit {
				t.Fatalf("delivery %d charged %d drops, limit %d (header %+v, %d-byte body)", i, charged, limit, h, len(body))
			}
		}
		to := gossip.NodeID(h.To)
		for _, sp := range spans {
			n := 0
			in.drainBatch(sp.Lo, func([]byte) { n++ })
			if n > capacity || (n > 0 && !(batch && to == sp.Lo)) {
				t.Fatalf("span %d holds %d batches after header %+v", sp.Lo, n, h)
			}
			for id := sp.Lo; id < sp.Hi; id++ {
				n := 0
				in.drain(id, func(p any) {
					n++
					for _, a := range receivers {
						a.Receive(p)
					}
				})
				if n > capacity || (n > 0 && (batch || to != id)) {
					t.Fatalf("host %d holds %d payloads after header %+v", id, n, h)
				}
			}
		}
	})
}
