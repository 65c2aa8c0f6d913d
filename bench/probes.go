package main

import (
	"runtime"
	"time"

	"dynagg/internal/env"
	"dynagg/internal/gossip"
	"dynagg/internal/gossip/live/transport"
	"dynagg/internal/protocol/multi"
	"dynagg/internal/protocol/pushsumrevert"
	"dynagg/internal/wire"
	"dynagg/internal/xrand"
)

// Tight-loop probes: per-message boundaries that are too hot to span
// are timed here, on realistic payloads, outside any workload. Each
// probe runs a fixed count and reports nanoseconds per operation; the
// best of three passes is kept, so a scheduler hiccup cannot move it.

// bestOf3 returns the shortest of three runs of f.
func bestOf3(f func()) time.Duration {
	var best time.Duration
	for i := 0; i < 3; i++ {
		t := time.Now()
		f()
		if d := time.Since(t); i == 0 || d < best {
			best = d
		}
	}
	return best
}

// probeEnvPick times Environment.Pick on a uniform population of n
// hosts. A pick costs about as much as reading the clock, so it cannot
// be timed where it happens (a sampling decorator measured the clock,
// not the call); the kernels' emit time has picks × this subtracted.
func probeEnvPick(seed uint64, n, calls int) float64 {
	u := env.NewUniform(n)
	rng := xrand.NewStream(seed, 0x91c)
	var sink gossip.NodeID
	d := bestOf3(func() {
		for i := 0; i < calls; i++ {
			p, _ := u.Pick(gossip.NodeID(i%n), 0, rng)
			sink += p
		}
	})
	_ = sink
	return float64(d.Nanoseconds()) / float64(calls)
}

// probeColumnarWire times the live batch plane's per-record hooks of
// Push-Sum-Revert: AppendWire out of the columns and DeliverWire back
// into them, over ProbeMsgs messages between seed-chosen hosts.
func probeColumnarWire(rep *report, in *colInputs, sz sizes) {
	n := len(in.values)
	proto := pushsumrevert.NewColumnar(in.values, pushsumrevert.Config{Lambda: sz.Lambda})
	rng := xrand.NewStream(in.seed, 0xb17e)
	const chunk = 4096
	msgs := make([]gossip.ColMsg, chunk)
	for i := range msgs {
		from := gossip.NodeID(rng.Intn(n))
		msgs[i] = gossip.ColMsg{To: gossip.NodeID(rng.Intn(n)), From: from, Mass: gossip.Mass{W: 0.5, V: in.values[from] / 2}}
	}
	buf := make([]byte, 0, chunk*16)
	reps := sz.ProbeMsgs / chunk
	if reps < 1 {
		reps = 1
	}
	appendNS := bestOf3(func() {
		for r := 0; r < reps; r++ {
			buf = buf[:0]
			for _, m := range msgs {
				buf = proto.AppendWire(buf, m)
			}
		}
	})
	failed := int64(0)
	deliverNS := bestOf3(func() {
		for r := 0; r < reps; r++ {
			src := buf
			for _, m := range msgs {
				rest, err := proto.DeliverWire(m.To, src)
				if err != nil {
					failed++
					break
				}
				src = rest
			}
		}
	})
	total := float64(reps * chunk)
	rep.op(int64(2*total), failed)
	rep.set("protocol.appendwire_ns_per_msg", float64(appendNS.Nanoseconds())/total)
	rep.set("protocol.deliverwire_ns_per_msg", float64(deliverNS.Nanoseconds())/total)
}

// convergedBundle gossips a small multi population to convergence and
// returns what one of its hosts then puts on the wire: a bundle holding
// a converged 64×24 counter matrix and one mass per name.
func convergedBundle(seed uint64, names []string) (multi.Bundle, []uint8) {
	const n, rounds = 256, 40
	agents := make([]gossip.Agent, n)
	for i := range agents {
		agents[i] = newWorker(seed, gossip.NodeID(i), names)
	}
	e, err := gossip.NewEngine(gossip.Config{Env: env.NewUniform(n), Agents: agents, Model: gossip.Push, Seed: seed})
	if err != nil {
		panic(err)
	}
	e.Run(rounds)
	for _, envl := range agents[0].Emit(rounds, e.Rng(0), func() (gossip.NodeID, bool) { return 1, true }) {
		if b, ok := envl.Payload.(multi.Bundle); ok && b.Count != nil {
			return b, b.Count.([]uint8)
		}
	}
	panic("bench: multi host emitted no sketch bundle")
}

// probeWire times the codec primitives on realistic payloads. which
// selects the groups to report: "header", "mass", "counters", "frame".
func probeWire(rep *report, seed uint64, sz sizes, which ...string) {
	_, counters := convergedBundle(seed, []string{"load"})
	reps := sz.ProbeMsgs
	buf := make([]byte, 0, 4096)
	var failed int64
	for _, w := range which {
		switch w {
		case "header":
			h := wire.Header{Kind: 2, To: 123456, From: 654321, Tick: 250}
			a := bestOf3(func() {
				for i := 0; i < reps; i++ {
					buf = wire.AppendHeader(buf[:0], h)
				}
			})
			d := bestOf3(func() {
				for i := 0; i < reps; i++ {
					if _, _, err := wire.DecodeHeader(buf); err != nil {
						failed++
					}
				}
			})
			rep.set("wire.header_append_ns", float64(a.Nanoseconds())/float64(reps))
			rep.set("wire.header_decode_ns", float64(d.Nanoseconds())/float64(reps))
		case "mass":
			a := bestOf3(func() {
				for i := 0; i < reps; i++ {
					buf = wire.AppendMass(buf[:0], 0.5, 24.75)
				}
			})
			d := bestOf3(func() {
				for i := 0; i < reps; i++ {
					if _, _, _, err := wire.DecodeMass(buf); err != nil {
						failed++
					}
				}
			})
			rep.set("wire.mass_append_ns", float64(a.Nanoseconds())/float64(reps))
			rep.set("wire.mass_decode_ns", float64(d.Nanoseconds())/float64(reps))
		case "counters":
			// A matrix is ~1.5 KB of counters; a hundredth of the message
			// count keeps the probe under a tenth of a second.
			k := max(reps/100, 1)
			dst := make([]uint8, len(counters))
			a := bestOf3(func() {
				for i := 0; i < k; i++ {
					buf = wire.AppendCounters(buf[:0], counters)
				}
			})
			d := bestOf3(func() {
				for i := 0; i < k; i++ {
					if _, err := wire.DecodeCounters(dst, buf); err != nil {
						failed++
					}
				}
			})
			rep.set("wire.counters_append_ns", float64(a.Nanoseconds())/float64(k))
			rep.set("wire.counters_decode_ns", float64(d.Nanoseconds())/float64(k))
			rep.set("wire.counters_bytes", float64(len(buf)))
		case "frame":
			payload := wire.AppendCounters(nil, counters)
			a := bestOf3(func() {
				for i := 0; i < reps; i++ {
					buf = wire.AppendFrame(buf[:0], payload)
				}
			})
			d := bestOf3(func() {
				for i := 0; i < reps; i++ {
					if _, _, err := wire.DecodeFrame(buf, 1<<20); err != nil {
						failed++
					}
				}
			})
			rep.set("wire.frame_append_ns", float64(a.Nanoseconds())/float64(reps))
			rep.set("wire.frame_decode_ns", float64(d.Nanoseconds())/float64(reps))
		}
	}
	rep.op(int64(len(which)*2), failed)
}

// drainUntil polls a non-blocking drain until want items arrived or
// the deadline passes (socket transports deliver asynchronously).
func drainUntil(want int, drain func() int) bool {
	deadline := time.Now().Add(2 * time.Second)
	for got := 0; got < want; {
		got += drain()
		if got < want && time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// probeBatchRoundTrips times SendBatch → DrainBatch on the two batch
// planes live-batch does not use, with the record size it does use, in
// bursts of eight batches so the socket path is pipelined as a tick's
// wave is.
func probeBatchRoundTrips(rep *report, sz sizes) {
	const hosts, perBatch, burst = 1024, 512, 8
	body := make([]byte, 1+perBatch*19) // kind byte + (3-byte id, 16-byte mass) records
	rounds := max(sz.ProbeMsgs/perBatch/burst/4, 2)
	udp, err := transport.NewUDPLoopback(hosts, 1, 1024)
	if !rep.check(err == nil, "probe: udp loopback: %v", err) {
		return
	}
	defer udp.Close()
	planes := []struct {
		name string
		b    transport.Batcher
	}{
		{"chan", transport.NewChannelGroups(hosts, 1024, 1)},
		{"udp", udp},
	}
	for _, p := range planes {
		var lost int64
		d := bestOf3(func() {
			for i := 0; i < rounds; i++ {
				sent := 0
				for j := 0; j < burst; j++ {
					if p.b.SendBatch(0, i, perBatch, body) {
						sent++
					}
				}
				ok := drainUntil(sent, func() int { n := 0; p.b.DrainBatch(0, func([]byte) { n++ }); return n })
				if sent < burst || !ok {
					lost++
				}
			}
		})
		rep.op(int64(3*rounds), lost)
		rep.set("transport."+p.name+".batch_roundtrip_ns_per_msg", float64(d.Nanoseconds())/float64(rounds*burst*perBatch))
	}
}

// probeSendDrain times the per-host plane: Send of one payload, then
// Drain at the destination, on each medium — the path every message of
// the agents backend takes — in bursts of 64 messages, about what one
// span sends another per tick.
func probeSendDrain(rep *report, seed uint64, sz sizes, names []string) {
	const hosts, burst = 64, 64
	bundle, _ := convergedBundle(seed, names)
	mass := pushsumrevert.Mass{W: 0.5, V: 24.75}
	udp, err := transport.NewUDPLoopback(hosts, 2, 0)
	if !rep.check(err == nil, "probe: udp loopback: %v", err) {
		return
	}
	defer udp.Close()
	tcp, err := transport.NewTCPLoopback(hosts, 2, 0)
	if !rep.check(err == nil, "probe: tcp loopback: %v", err) {
		return
	}
	defer tcp.Close()
	rounds := max(sz.ProbeMsgs/burst/100, 2)
	probes := []struct {
		metric  string
		tr      transport.Transport
		payload any
	}{
		{"transport.chan.send_drain_ns_per_msg", transport.NewChannel(hosts, 0), mass},
		{"transport.udp.send_drain_ns_per_msg", udp, mass},
		{"transport.tcp.send_drain_ns_per_msg.mass", tcp, mass},
		{"transport.tcp.send_drain_ns_per_msg.bundle", tcp, bundle},
	}
	for _, p := range probes {
		var lost int64
		to := gossip.NodeID(hosts - 1) // the other group on the socket transports
		d := bestOf3(func() {
			for i := 0; i < rounds; i++ {
				sent := 0
				for j := 0; j < burst; j++ {
					if p.tr.Send(gossip.NodeID(j%(hosts/2)), to, i, p.payload) {
						sent++
					}
				}
				ok := drainUntil(sent, func() int { n := 0; p.tr.Drain(to, func(any) { n++ }); return n })
				if sent < burst || !ok {
					lost++
				}
			}
		})
		rep.op(int64(3*rounds), lost)
		rep.set(p.metric, float64(d.Nanoseconds())/float64(rounds*burst))
	}
}

// probeMultiEmitAllocs counts what one Emit of a converged multi host
// allocates — the per-host, per-tick garbage of the agents backend.
func probeMultiEmitAllocs(rep *report, seed uint64, names []string) {
	const n, rounds, calls = 256, 40, 2000
	agents := make([]gossip.Agent, n)
	for i := range agents {
		agents[i] = newWorker(seed, gossip.NodeID(i), names)
	}
	e, err := gossip.NewEngine(gossip.Config{Env: env.NewUniform(n), Agents: agents, Model: gossip.Push, Seed: seed})
	if err != nil {
		panic(err)
	}
	e.Run(rounds)
	pick := func() (gossip.NodeID, bool) { return 1, true }
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < calls; i++ {
		agents[0].Emit(rounds+i, e.Rng(0), pick)
	}
	runtime.ReadMemStats(&ms1)
	rep.set("protocol.multi.emit_allocs_per_host", float64(ms1.Mallocs-ms0.Mallocs)/calls)
}
