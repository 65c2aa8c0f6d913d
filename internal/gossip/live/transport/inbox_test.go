package transport

import (
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
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

// TestFIFOMatchesSliceReference drives the receive queue with seeded
// random pushes and pops at every capacity from 1 to 70 (and the
// default) against a plain slice: same items out in the same order,
// push refused exactly at capacity, the ring grown by doubling and
// never past capacity, and no slot outside the queued window still
// referencing an item, so a popped payload is garbage once its reader
// lets go.
func TestFIFOMatchesSliceReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(49, 1))
	capacities := []int{DefaultQueue}
	for c := 1; c <= 70; c++ {
		capacities = append(capacities, c)
	}
	for _, capacity := range capacities {
		var q fifo[*int]
		var ref []*int
		full, wrapped := false, false
		next := 0
		for op := 0; op < 40*capacity; op++ {
			// Alternate fill-heavy and drain-heavy stretches, so the
			// queue reaches capacity and empties again, wrapping.
			pPush := 0.8
			if (op/(2*capacity))%2 == 1 {
				pPush = 0.3
			}
			if rng.Float64() < pPush {
				v := new(int)
				*v = next
				next++
				oldLen := len(q.ring)
				ok := q.push(v, capacity)
				if want := len(ref) < capacity; ok != want {
					t.Fatalf("cap %d: push with %d queued = %v, want %v", capacity, len(ref), ok, want)
				}
				if ok {
					ref = append(ref, v)
				}
				if l := len(q.ring); l != oldLen && l != min(max(2*oldLen, 1), capacity) {
					t.Fatalf("cap %d: ring grew %d -> %d, want doubling capped at capacity", capacity, oldLen, l)
				}
				full = full || len(ref) == capacity
			} else {
				head := q.head
				v, ok := q.pop()
				if ok != (len(ref) > 0) {
					t.Fatalf("cap %d: pop with %d queued reported ok=%v", capacity, len(ref), ok)
				}
				if ok {
					if v != ref[0] {
						t.Fatalf("cap %d: popped %d, want %d", capacity, *v, *ref[0])
					}
					ref = ref[1:]
					if q.ring[head] != nil {
						t.Fatalf("cap %d: popped slot %d still holds its item", capacity, head)
					}
				}
			}
			if q.count != len(ref) || len(q.ring) > capacity {
				t.Fatalf("cap %d: count %d ring %d, want count %d ring ≤ capacity", capacity, q.count, len(q.ring), len(ref))
			}
			wrapped = wrapped || q.head+q.count > len(q.ring)
			for i := range q.ring {
				if live := (i-q.head+len(q.ring))%len(q.ring) < q.count; !live && q.ring[i] != nil {
					t.Fatalf("cap %d: slot %d outside the queue holds an item", capacity, i)
				}
			}
		}
		if !full || (capacity > 1 && !wrapped) {
			t.Fatalf("cap %d: run never filled (%v) or wrapped (%v) the ring", capacity, full, wrapped)
		}
	}
}

// TestFIFOFootprintPerHost pins what an idle-ish host's receive queue
// costs: a Channel over 4096 hosts, each sent one message and drained
// once, allocates under 256 B per host — the queue grows to what it
// held, not to its 256-slot capacity (4 KiB of slots per host).
func TestFIFOFootprintPerHost(t *testing.T) {
	const hosts = 4096
	var payload any = mass(1) // boxed once, outside the measurement
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ch := NewChannel(hosts, 0)
	for id := gossip.NodeID(0); id < hosts; id++ {
		if !ch.Send(0, id, 0, payload) {
			t.Fatalf("send to host %d rejected", id)
		}
	}
	delivered := 0
	for id := gossip.NodeID(0); id < hosts; id++ {
		ch.Drain(id, func(any) { delivered++ })
	}
	runtime.ReadMemStats(&after)
	if delivered != hosts {
		t.Fatalf("delivered %d of %d", delivered, hosts)
	}
	if perHost := (after.TotalAlloc - before.TotalAlloc) / hosts; perHost >= 256 {
		t.Errorf("%d B of heap per host for one queued message, budget < 256 B", perHost)
	}
}

// TestFIFOConcurrentSendersDeliverOnce has several goroutines Send to
// one host while it drains: every accepted payload arrives exactly
// once and in its sender's order, and accepted plus Dropped is what was
// sent. Run under -race it also checks the queue's locking.
func TestFIFOConcurrentSendersDeliverOnce(t *testing.T) {
	const senders, perSender = 4, 5000
	type msg struct{ from, seq int }
	ch := NewChannel(2, 0)
	accepted := make([][]int, senders)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				if ch.Send(0, 1, i, msg{s, i}) {
					accepted[s] = append(accepted[s], i)
				}
			}
		}(s)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	delivered := make([][]int, senders)
	collect := func(p any) {
		m := p.(msg)
		delivered[m.from] = append(delivered[m.from], m.seq)
	}
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true // one last Drain below collects the rest
		default:
		}
		ch.Drain(1, collect)
	}
	total := 0
	for s := range accepted {
		total += len(accepted[s])
		if len(delivered[s]) != len(accepted[s]) {
			t.Fatalf("sender %d: %d accepted, %d delivered", s, len(accepted[s]), len(delivered[s]))
		}
		for i, seq := range delivered[s] {
			if seq != accepted[s][i] {
				t.Fatalf("sender %d: delivery %d is seq %d, want %d (once each, in order)", s, i, seq, accepted[s][i])
			}
		}
	}
	if ch.Sent() != int64(total) || int64(total)+ch.Dropped() != senders*perSender {
		t.Errorf("accepted %d sent %d dropped %d, want sent = accepted and accepted + dropped = %d",
			total, ch.Sent(), ch.Dropped(), senders*perSender)
	}
}
