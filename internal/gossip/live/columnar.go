package live

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync/atomic"

	"dynagg/internal/gossip"
	"dynagg/internal/gossip/live/transport"
	"dynagg/internal/xrand"
)

// ColumnarProtocol is the contract a columnar protocol must satisfy to
// run on the live engine: the round kernels of gossip.ColumnarAgent
// plus three wire hooks that extend the columnar plane across the
// socket boundary. Where the classic live path boxes every payload
// into an interface value and the transport codec re-dispatches on its
// type, these hooks append a message's payload straight from the
// protocol's state columns into a batch body and fold a received
// record straight back into the destination's columns — no
// intermediate payload values, no per-host allocation on the hot path.
//
// Record framing is owned by the live engine: each record in a batch
// body is a uvarint destination host id followed by the protocol's
// payload bytes. AppendWire and DeliverWire see only the payload part.
//
// Async-safety contract: unlike the round engine, delivery here
// crosses tick (and process) boundaries, so a payload must be
// self-contained at decode time — AppendWire runs in the emitting
// shard's tick, immediately after EmitRange, while every m.From-indexed
// snapshot (e.g. Count-Sketch-Reset's shadow block) is still valid,
// and DeliverWire must depend only on the destination's columns plus
// the record bytes.
//
// Call pattern: per shard per tick, BeginRange and EndRange are each
// called exactly once over the shard's whole host range; EmitRange and
// Deliver (self shares only) may be called several times in between,
// over consecutive sub-ranges (see colShard.tick).
//
// pushsumrevert.Columnar (Push-Sum too, at λ = 0, and Moments, built
// by NewColumnarMoments, with its own record kind) and
// sketchreset.Columnar implement it.
type ColumnarProtocol interface {
	gossip.ColumnarAgent
	// WireKind tags this protocol's batch records; a batch whose first
	// byte does not match the running protocol's kind is discarded
	// whole (a datagram from some other experiment, or garbage).
	WireKind() uint8
	// AppendWire appends emitted message m's payload record to dst,
	// reading from the population's columns, and returns the extended
	// slice.
	AppendWire(dst []byte, m gossip.ColMsg) []byte
	// DeliverWire decodes one payload record from src and folds it
	// into host to's columns, returning the remaining bytes. The live
	// engine bounds-checks to against the draining shard before
	// calling.
	DeliverWire(to gossip.NodeID, src []byte) ([]byte, error)
}

// ColumnarPopulation is the dense host backend: one ColumnarProtocol
// owns the whole population's state, per-host PRNG streams live in one
// flat block, and drivers tick contiguous ranges of whole transport
// batch groups — each tick is a handful of flat kernel calls plus one
// encoded batch per destination group, so a million live hosts fit in
// one process with bounded RSS.
//
// Requirements: the full population (no Span), the push model
// (push/pull pairs cross shard ownership), and a transport exposing a
// batch plane (transport.Batcher — the channel, UDP and TCP transports
// all qualify, plain or wrapped in transport.Lossy). Liveness is
// time-invariant, as Config.Env requires (estimates reads it at the
// final tick). Mass DeliverWire folds into a dead host stays in its
// inbox, as the classic path holds it in the host's transport queue.
type ColumnarPopulation struct {
	proto ColumnarProtocol
	e     *Engine
	b     transport.Batcher

	// rngs is the population's PRNG block (16 bytes per host, one
	// allocation), shared by every driver's gossip.ColRound.
	rngs []xrand.Rand
	// alive is the population-wide liveness bitmap; each driver samples
	// its own host range into it every tick (gossip.ColRound.Sample).
	alive []bool
	// ticks counts each host's completed live iterations — the dense
	// column form of the classic path's per-goroutine tick counter.
	ticks []int32
	// groupOf maps a destination host to its batch group, so routing
	// an emission is one slice read.
	groupOf []uint16
	// nLocal counts self-share deliveries (never touch the transport).
	nLocal atomic.Int64
}

var _ Population = (*ColumnarPopulation)(nil)

// NewColumnarPopulation wraps a columnar protocol covering the full
// environment population (proto.Len() hosts).
func NewColumnarPopulation(proto ColumnarProtocol) *ColumnarPopulation {
	return &ColumnarPopulation{proto: proto}
}

// Columnar returns the backing protocol, for state inspection after a
// run.
func (p *ColumnarPopulation) Columnar() ColumnarProtocol { return p.proto }

// Hosts implements Population.
func (p *ColumnarPopulation) Hosts() int { return p.proto.Len() }

// Ticks returns how many live iterations host id has completed — racy
// during a run, exact after.
func (p *ColumnarPopulation) Ticks(id gossip.NodeID) int { return int(p.ticks[id]) }

// bind implements Population.
func (p *ColumnarPopulation) bind(e *Engine) error {
	cfg := e.cfg
	n := p.proto.Len()
	if e.partial {
		return fmt.Errorf("live: ColumnarPopulation drives the full population; Span is not supported (run an AgentPopulation per process instead)")
	}
	if n != cfg.Env.Size() {
		return fmt.Errorf("live: Population of %d hosts for environment of size %d", n, cfg.Env.Size())
	}
	if cfg.Model != gossip.Push {
		return fmt.Errorf("live: ColumnarPopulation supports only the push model; push/pull pairs cross shard ownership")
	}
	b, ok := transport.AsBatcher(e.tr)
	if !ok {
		return fmt.Errorf("live: ColumnarPopulation needs a transport with a batch plane (transport.Batcher); %T has none", e.tr)
	}
	// The batch groups must tile [0, n) exactly: drivers own whole
	// groups, and every host must belong to exactly one.
	at := 0
	for g := 0; g < b.BatchGroups(); g++ {
		lo, hi := b.BatchGroup(g)
		if int(lo) != at || hi <= lo {
			return fmt.Errorf("live: transport batch group %d covers [%d,%d); groups must tile [0,%d) contiguously", g, lo, hi, n)
		}
		at = int(hi)
	}
	if at != n {
		return fmt.Errorf("live: transport batch groups cover [0,%d) for a population of %d hosts", at, n)
	}
	p.e = e
	p.b = b
	p.rngs = make([]xrand.Rand, n)
	root := xrand.New(cfg.Seed)
	for i := range p.rngs {
		p.rngs[i] = *root.Split(uint64(i))
	}
	p.alive = make([]bool, n)
	p.ticks = make([]int32, n)
	if b.BatchGroups() > 1<<16 {
		return fmt.Errorf("live: %d transport batch groups exceed the %d-group routing limit", b.BatchGroups(), 1<<16)
	}
	p.groupOf = make([]uint16, n)
	for g := 0; g < b.BatchGroups(); g++ {
		lo, hi := b.BatchGroup(g)
		for id := lo; id < hi; id++ {
			p.groupOf[id] = uint16(g)
		}
	}
	return nil
}

// drivers implements Population: drivers own contiguous runs of whole
// batch groups (so every column write — Begin/Emit/End on the host
// range, DeliverWire on drained inbound — stays inside one driver's
// territory and the tick needs no locks). Workers == 0 means one
// driver per group; more workers than groups are clamped.
func (p *ColumnarPopulation) drivers(workers int) []driver {
	groups := p.b.BatchGroups()
	if workers == 0 || workers > groups {
		workers = groups
	}
	ds := make([]driver, workers)
	for s := 0; s < workers; s++ {
		gLo, gHi := s*groups/workers, (s+1)*groups/workers
		lo, _ := p.b.BatchGroup(gLo)
		_, hi := p.b.BatchGroup(gHi - 1)
		sh := &colShard{
			p: p, gLo: gLo, gHi: gHi, lo: int(lo), hi: int(hi),
			rc:  gossip.NewColRound(p.e.cfg.Model, p.e.cfg.Env, p.rngs, p.alive, int(hi-lo)),
			enc: make([][]byte, groups),
			cnt: make([]int, groups),
		}
		sh.deliver = sh.deliverBatch
		ds[s] = sh
	}
	return ds
}

// local implements Population.
func (p *ColumnarPopulation) local() int64 { return p.nLocal.Load() }

// estimates implements Population.
func (p *ColumnarPopulation) estimates() []float64 {
	cfg := p.e.cfg
	n := p.proto.Len()
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		id := gossip.NodeID(i)
		if !cfg.Env.Alive(id, p.e.finalTick()) {
			continue
		}
		if v, ok := p.proto.Estimate(id); ok {
			out = append(out, v)
		}
	}
	return out
}

// tickBlock is how many hosts the emit half of a tick handles at a
// time: a block's emissions (two 24-byte messages per mass-protocol
// host) are routed and encoded while they are still in the core's
// cache, instead of a whole shard's worth being written out, evicted,
// and read back.
const tickBlock = 2048

// colShard drives batch groups [gLo, gHi) — hosts [lo, hi). Per-shard
// scratch (one block's emission, routing and self-share columns, one
// encode buffer per destination group) is reused across ticks, so a
// steady-state tick allocates nothing.
type colShard struct {
	p        *ColumnarPopulation
	gLo, gHi int
	lo, hi   int
	rc       *gossip.ColRound
	out      []gossip.ColMsg
	self     []gossip.ColMsg
	gs       []uint16 // destination group of each message in out
	enc      [][]byte // per destination group, first byte = WireKind
	cnt      []int    // records currently in enc[g]
	// deliver is deliverBatch bound once: a method value built at the
	// DrainBatch call would be a heap allocation per group per tick.
	deliver func(body []byte)
}

// tick runs one columnar live iteration for the shard — the classic
// pushTick as kernels over ranges instead of interface calls per host.
// The order is a contract (protocol decorators and the wire hooks
// depend on it): sample liveness; BeginRange once over [lo, hi); fold
// every batch that arrived since the last tick straight into columns;
// then, per block of tickBlock hosts, EmitRange, append every
// cross-host record to its destination group's batch in emitter order
// (AppendWire may read emitter snapshots only valid right after their
// EmitRange) and deliver the block's self shares in-process (mass must
// never evaporate); EndRange once over [lo, hi); flush one batch per
// destination group; yield the processor.
func (s *colShard) tick(t int) {
	p := s.p
	proto := p.proto
	rc := s.rc
	rc.Round = t
	rc.Sample(s.lo, s.hi)
	for _, id := range rc.Live(s.lo, s.hi) {
		p.ticks[id]++
	}

	proto.BeginRange(rc, s.lo, s.hi)
	for g := s.gLo; g < s.gHi; g++ {
		p.b.DrainBatch(g, s.deliver)
	}

	kind, limit := proto.WireKind(), p.b.MaxBatchBody()
	groupOf, enc, cnt := p.groupOf, s.enc, s.cnt
	nLocal := 0
	for blo := s.lo; blo < s.hi; blo += tickBlock {
		bhi := min(blo+tickBlock, s.hi)
		rc.Out = s.out[:0]
		proto.EmitRange(rc, blo, bhi)
		s.out = rc.Out

		// Route the whole block first. The table is far larger than L1
		// and destinations are random; in a loop of their own the
		// lookups overlap their cache misses, where inside the encode
		// loop each would wait behind an AppendWire call.
		gs := s.gs[:0]
		for i := range s.out {
			gs = append(gs, groupOf[s.out[i].To])
		}
		s.gs = gs

		self := s.self[:0]
		for i := range s.out {
			m := &s.out[i]
			if m.To == m.From {
				self = append(self, *m)
				continue
			}
			g := gs[i]
			buf := enc[g]
			if len(buf) == 0 {
				buf = append(buf, kind)
			}
			rec0 := len(buf)
			buf = binary.AppendUvarint(buf, uint64(uint32(m.To)))
			buf = proto.AppendWire(buf, *m)
			if len(buf) > limit {
				s.spill(t, int(g), buf, rec0, limit)
				continue
			}
			enc[g] = buf
			cnt[g]++
		}
		s.self = self
		if len(self) > 0 {
			proto.Deliver(rc, self)
			nLocal += len(self)
		}
	}
	p.nLocal.Add(int64(nLocal))
	proto.EndRange(rc, s.lo, s.hi)

	for g := range enc {
		if cnt[g] > 0 {
			p.b.SendBatch(g, t, cnt[g], enc[g])
		}
		enc[g] = enc[g][:0]
		cnt[g] = 0
	}
	// A free-running shard never blocks, and with a shard per core the
	// transport's writers and readers would run only when the scheduler
	// preempts one (every 10 ms or so, longer than a tick): batches pile
	// up in outboxes and inboxes by the hundred, and how many is a matter
	// of scheduling luck. Yielding once per tick lets the writers woken
	// by the flush above run now.
	runtime.Gosched()
}

// spill is the tick's slow path: the record at buf[rec0:] pushed group
// g's body past the transport's body limit. The records accumulated
// before it ship first, and the new one restarts the body.
func (s *colShard) spill(t, g int, buf []byte, rec0, limit int) {
	b := s.p.b
	if rec0 > 1 {
		// Kind byte stays; the new record slides forward.
		b.SendBatch(g, t, s.cnt[g], buf[:rec0])
		buf = buf[:1+copy(buf[1:], buf[rec0:])]
		s.cnt[g] = 0
	}
	if len(buf) > limit {
		// A single record larger than the body limit: hand it to the
		// transport alone, which drops and counts it — oversized state
		// simply does not fit the radio — and keep the buffer clean
		// for the records that do fit.
		b.SendBatch(g, t, 1, buf)
		s.enc[g] = buf[:0]
		return
	}
	s.enc[g] = buf
	s.cnt[g]++
}

// deliverBatch folds one inbound batch body into the shard's columns:
// check the protocol kind, then walk the records — uvarint destination
// id, protocol payload — bounds-checking every destination against the
// shard's host range so a corrupt datagram cannot write another
// shard's (or nobody's) state. A record that fails to parse discards
// the rest of the batch, mirroring the classic reader's whole-datagram
// drop on decode errors.
func (s *colShard) deliverBatch(body []byte) {
	proto := s.p.proto
	if len(body) == 0 || body[0] != proto.WireKind() {
		return
	}
	lo, hi := uint64(s.lo), uint64(s.hi)
	src := body[1:]
	for len(src) > 0 {
		to, n := binary.Uvarint(src)
		if n <= 0 || to < lo || to >= hi {
			return
		}
		rest, err := proto.DeliverWire(gossip.NodeID(to), src[n:])
		if err != nil {
			return
		}
		src = rest
	}
}
