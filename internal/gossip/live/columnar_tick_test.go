package live

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"dynagg/internal/env"
	"dynagg/internal/gossip"
	"dynagg/internal/gossip/live/transport"
	"dynagg/internal/protocol/pushsumrevert"
	"dynagg/internal/protocol/sketchreset"
	"dynagg/internal/sketch"
	"dynagg/internal/wire"
	"dynagg/internal/xrand"
)

// recordingBatcher is a loopback batch plane that hashes every
// SendBatch call — group, tick, message count, body bytes — in call
// order, then queues the body for the group's next DrainBatch. Driven
// by one shard it is fully deterministic, so the digest pins exactly
// what a tick puts on the wire and when.
type recordingBatcher struct {
	bounds  []gossip.NodeID // group g is [bounds[g], bounds[g+1])
	maxBody int
	h       hash.Hash
	queued  [][][]byte
	sent    int64
	dropped int64
}

var (
	_ transport.Transport = (*recordingBatcher)(nil)
	_ transport.Batcher   = (*recordingBatcher)(nil)
)

func newRecordingBatcher(maxBody int, bounds ...gossip.NodeID) *recordingBatcher {
	return &recordingBatcher{
		bounds: bounds, maxBody: maxBody, h: sha256.New(),
		queued: make([][][]byte, len(bounds)-1),
	}
}

func (r *recordingBatcher) Send(from, to gossip.NodeID, tick int, payload any) bool { return false }
func (r *recordingBatcher) Drain(id gossip.NodeID, fn func(payload any))            {}
func (r *recordingBatcher) Sent() int64                                             { return r.sent }
func (r *recordingBatcher) Dropped() int64                                          { return r.dropped }
func (r *recordingBatcher) Close() error                                            { return nil }
func (r *recordingBatcher) BatchGroups() int                                        { return len(r.bounds) - 1 }
func (r *recordingBatcher) MaxBatchBody() int                                       { return r.maxBody }

func (r *recordingBatcher) BatchGroup(g int) (lo, hi gossip.NodeID) {
	return r.bounds[g], r.bounds[g+1]
}

func (r *recordingBatcher) SendBatch(group, tick, msgs int, body []byte) bool {
	var hdr [32]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(group))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(tick))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(msgs))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(len(body)))
	r.h.Write(hdr[:])
	r.h.Write(body)
	if len(body) > r.maxBody {
		r.dropped += int64(msgs)
		return false
	}
	r.queued[group] = append(r.queued[group], append([]byte(nil), body...))
	r.sent += int64(msgs)
	return true
}

func (r *recordingBatcher) DrainBatch(group int, fn func(body []byte)) {
	q := r.queued[group]
	r.queued[group] = nil
	for _, body := range q {
		fn(body)
	}
}

// TestColumnarTickBatchBytesGolden pins the columnar tick's observable
// contract as one digest per protocol: the exact SendBatch sequence
// (records per destination group in ascending-emitter order, the batch
// split points at MaxBatchBody, the oversized-record hand-off),
// AppendWire reading emitter state that is only valid right after its
// EmitRange (Count-Sketch-Reset's shadow block), self shares folded
// before EndRange (a late fold changes the next tick's bytes), and the
// nLocal, Ticks and estimate totals at the end. Three uneven groups
// under one driver, so neither group edges nor batch splits line up
// with any internal blocking of the host range. The digests were
// recorded on the unblocked tick (commit 00ba2b5), the dead-third one on
// the tick that still tested liveness per host per kernel (746d416); any
// restructuring of the loop must reproduce them bit for bit.
func TestColumnarTickBatchBytesGolden(t *testing.T) {
	const n = 5003
	values, _ := liveValues(n)
	smallSketch := sketchreset.Config{Params: sketch.Params{Bins: 32, Levels: 16}, Identifiers: 1}
	revert := func() ColumnarProtocol {
		return pushsumrevert.NewColumnar(values, pushsumrevert.Config{Lambda: 0.05})
	}
	cases := []struct {
		name    string
		proto   func() ColumnarProtocol
		maxBody int
		// deadSeed, when non-zero, picks a third of the hosts that are
		// dead for the whole run (live liveness is time-invariant).
		deadSeed uint64
		want     string
	}{
		{"push-sum-revert", revert, 1000, 0,
			"05a7a1d20f36e02e9361b8c7c18d9d9ebc721af98a922e7a8606055f1348402a"},
		{"push-sum-revert/dead-third", revert, 1000, 25,
			"2a0626d87895755a394aaa4f1101280a2cd0d9d1ce2f227142306b23d1021c07"},
		{"count-sketch-reset", func() ColumnarProtocol {
			return sketchreset.NewColumnar(n, smallSketch)
		}, 4096, 0, "5d1a6e45ca2f4bc584617c71361cc8c321ddfef56fe5e5e81d7cc5b0be17c5bc"},
		// A body limit below one record: every record takes the
		// oversized path and is handed to the transport alone.
		{"count-sketch-reset/oversized", func() ColumnarProtocol {
			return sketchreset.NewColumnar(n, smallSketch)
		}, 24, 0, "99440d2f0775139562562e551458a31abe3fcf85344ed1d120383269ab473a82"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := newRecordingBatcher(tc.maxBody, 0, 1201, 3500, n)
			pop := NewColumnarPopulation(tc.proto())
			u := env.NewUniform(n)
			if tc.deadSeed != 0 {
				for _, id := range xrand.New(tc.deadSeed).Perm(n)[:n/3] {
					u.Fail(gossip.NodeID(id))
				}
			}
			e, err := New(Config{
				Env: u, Population: pop, Model: gossip.Push,
				Seed: 1609, Ticks: 20, Workers: 1, Transport: rec,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			var tail [8]byte
			put := func(v uint64) {
				binary.LittleEndian.PutUint64(tail[:], v)
				rec.h.Write(tail[:])
			}
			put(uint64(pop.local()))
			put(uint64(rec.sent))
			put(uint64(rec.dropped))
			ticks := 0
			for id := 0; id < n; id++ {
				ticks += pop.Ticks(gossip.NodeID(id))
			}
			put(uint64(ticks))
			for _, v := range e.Estimates() {
				put(math.Float64bits(v))
			}
			if got := hex.EncodeToString(rec.h.Sum(nil)); got != tc.want {
				t.Errorf("batch digest %s, want %s (local %d, sent %d, dropped %d, ticks %d)",
					got, tc.want, pop.local(), rec.sent, rec.dropped, ticks)
			}
		})
	}
}

// TestColumnarTickAllocatesNothing pins colShard's promise: once its
// scratch columns and encode buffers (and the channel transport's
// pooled batch buffers) have grown to size, a tick allocates nothing
// on the driver's side.
func TestColumnarTickAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random, and every refill is an allocation")
	}
	const n = 6000
	values, _ := liveValues(n)
	pop := NewColumnarPopulation(pushsumrevert.NewColumnar(values, pushsumrevert.Config{Lambda: 0.05}))
	_, err := New(Config{
		Env: env.NewUniform(n), Population: pop, Model: gossip.Push,
		Seed: 7, Ticks: Forever, Transport: transport.NewChannelGroups(n, 0, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	shards := pop.drivers(0)
	tick := 0
	sweep := func() {
		for _, s := range shards {
			s.tick(tick)
		}
		tick++
	}
	for i := 0; i < 3; i++ {
		sweep()
	}
	if allocs := testing.AllocsPerRun(50, sweep); allocs != 0 {
		t.Errorf("a steady-state tick of both shards allocates %v times, want 0", allocs)
	}
}

// FuzzDeliverBatch feeds a shard's inbound fold arbitrary batch bodies
// — what a socket can deliver — for fixed-width protocols
// (Push-Sum-Revert, and its moments form with a third value q) and a
// run-length one (Count-Sketch-Reset). Whatever the bytes, deliverBatch
// must not panic and must not touch a column outside the draining
// shard's [lo, hi): the hosts either side of it (and the population's
// first and last) are sentinels whose state must come through
// unchanged.
func FuzzDeliverBatch(f *testing.F) {
	const n, lo, hi = 48, 16, 32
	mass := wire.AppendMass(nil, 0.5, 21)
	mass3 := wire.AppendMass3(nil, 0.5, 21, 900)
	record := func(kind uint8, to uint64, payload []byte) []byte {
		return append(binary.AppendUvarint([]byte{kind}, to), payload...)
	}
	f.Add(record(pushsumrevert.WireKindRevert, 20, mass))
	f.Add(append(record(pushsumrevert.WireKindRevert, 31, mass), record(0, 32, mass)[1:]...)) // second record off the shard's end
	f.Add(record(pushsumrevert.WireKindRevert, 15, mass))
	f.Add(record(pushsumrevert.WireKindRevert, 1<<40, mass))
	f.Add(record(pushsumrevert.WireKindRevert, 20, mass[:9]))
	f.Add(record(pushsumrevert.WireKindMoments, 20, mass3))
	f.Add(record(pushsumrevert.WireKindMoments, 40, mass3))
	f.Add(record(pushsumrevert.WireKindMoments, 20, mass3[:17]))
	f.Add(record(sketchreset.WireKindSketchReset, 17, wire.AppendCounters(nil, make([]uint8, 32*16))))
	f.Add(record(sketchreset.WireKindSketchReset, 40, wire.AppendCounters(nil, make([]uint8, 32*16))))
	f.Add([]byte{})

	values, _ := liveValues(n)
	shardOf := func(proto ColumnarProtocol) *colShard {
		pop := NewColumnarPopulation(proto)
		if _, err := New(Config{
			Env: env.NewUniform(n), Population: pop, Model: gossip.Push,
			Seed: 3, Ticks: Forever, Transport: transport.NewChannelGroups(n, 0, 3),
		}); err != nil {
			f.Fatal(err)
		}
		s := pop.drivers(0)[1].(*colShard)
		if s.lo != lo || s.hi != hi {
			f.Fatalf("middle shard is [%d,%d), want [%d,%d)", s.lo, s.hi, lo, hi)
		}
		// The kernels below run over the whole population, so the
		// shard's context samples all of it (Sample is the only writer
		// of the bitmap and of the live list the kernels iterate).
		s.rc.Sample(0, n)
		return s
	}
	revert := pushsumrevert.NewColumnar(values, pushsumrevert.Config{Lambda: 0.05})
	revertShard := shardOf(revert)
	moments := pushsumrevert.NewColumnarMoments(values, pushsumrevert.Config{Lambda: 0.05})
	momentsShard := shardOf(moments)
	reset := sketchreset.NewColumnar(n, sketchreset.Config{Params: sketch.Params{Bins: 32, Levels: 16}, Identifiers: 1})
	resetShard := shardOf(reset)
	sentinels := []gossip.NodeID{0, lo - 1, hi, n - 1}
	counters := func(id gossip.NodeID) []uint8 {
		out := make([]uint8, 0, 32*16)
		for bin := 0; bin < 32; bin++ {
			for level := 0; level < 16; level++ {
				out = append(out, reset.CounterAt(id, bin, level))
			}
		}
		return out
	}

	// The harness is live: an in-range record does land.
	revert.BeginRange(revertShard.rc, 0, n)
	revertShard.deliverBatch(record(pushsumrevert.WireKindRevert, 20, mass))
	revert.EndRange(revertShard.rc, 0, n)
	if m := revert.Mass(20); m.W != 0.5 || m.V != 21 {
		f.Fatalf("in-range record folded as %+v, want {0.5 21}", m)
	}
	// A moments shard folds q too, and discards a kind-2 batch whole.
	moments.BeginRange(momentsShard.rc, 0, n)
	momentsShard.deliverBatch(record(pushsumrevert.WireKindMoments, 20, mass3))
	momentsShard.deliverBatch(record(pushsumrevert.WireKindRevert, 21, mass))
	moments.EndRange(momentsShard.rc, 0, n)
	// (w, v, q) = (0.5, 21, 900): mean 42, variance 1800 − 42² = 36.
	if m := moments.Mass(20); m.W != 0.5 || m.V != 21 {
		f.Fatalf("in-range moments record folded as %+v, want {0.5 21}", m)
	}
	if sd, ok := moments.Estimate(20); !ok || sd != 6 {
		f.Fatalf("in-range moments record gave stddev %v, want 6", sd)
	}
	if m := moments.Mass(21); m.W != 0 || m.V != 0 {
		f.Fatalf("kind-2 batch folded into a moments shard as %+v", m)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		// Push-Sum-Revert: an emptied inbox that nothing was folded into
		// becomes zero mass at EndRange.
		revert.BeginRange(revertShard.rc, 0, n)
		revertShard.deliverBatch(body)
		revert.EndRange(revertShard.rc, 0, n)
		for _, id := range sentinels {
			if m := revert.Mass(id); m.W != 0 || m.V != 0 {
				t.Fatalf("host %d outside shard [%d,%d) received mass %+v", id, lo, hi, m)
			}
		}

		// Moments: each sentinel gets a canary (w, v, q) = (1, 0, 0), so
		// its estimate is readable after EndRange: any mass a record
		// leaks there moves (w, v) off (1, 0), and any positive q moves
		// the standard deviation off 0.
		canary := wire.AppendMass3(nil, 1, 0, 0)
		moments.BeginRange(momentsShard.rc, 0, n)
		momentsShard.deliverBatch(body)
		for _, id := range sentinels {
			if _, err := moments.DeliverWire(id, canary); err != nil {
				t.Fatal(err)
			}
		}
		moments.EndRange(momentsShard.rc, 0, n)
		for _, id := range sentinels {
			m := moments.Mass(id)
			if sd, _ := moments.Estimate(id); m.W != 1 || m.V != 0 || sd != 0 {
				t.Fatalf("host %d outside shard [%d,%d) received moments mass %+v (stddev %v)", id, lo, hi, m, sd)
			}
		}

		var before [][]uint8
		for _, id := range sentinels {
			before = append(before, counters(id))
		}
		resetShard.deliverBatch(body)
		for i, id := range sentinels {
			if !bytes.Equal(before[i], counters(id)) {
				t.Fatalf("host %d outside shard [%d,%d) had its counter matrix rewritten", id, lo, hi)
			}
		}
	})
}
