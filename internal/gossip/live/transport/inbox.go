package transport

import (
	"sync"
	"sync/atomic"

	"dynagg/internal/gossip"
	"dynagg/internal/wire"
)

// inbox is the receive plane every transport holds — the paper's §II
// radio queue, once: a bounded queue per local host and a bounded batch
// queue per local span, non-blocking enqueue, overflow shed and counted
// per message. Channel, UDP and TCP differ only in how a message gets
// here (a direct push, a datagram reader, a stream frame handler).
// Both kinds of queue are one type, fifo, whose memory follows its
// peak occupancy: a queue that never holds more than two messages
// costs two slots, however large the capacity.
//
// The inbox also owns the transport's drop counter: senders charge it
// for messages that die before reaching any queue (closed transport,
// unroutable host, unencodable payload), so Dropped reads one number.
type inbox struct {
	// spans are the host ranges received for locally, sorted by Lo and
	// frozen at construction; batchQ is parallel to them. A batch is
	// addressed by its span's Lo, which stays put while a TCP group
	// table grows and shifts indices.
	spans    []Group
	capacity int
	batchQ   []fifo[*[]byte]
	// hostQ, parallel to spans, holds one queue per local host. It is
	// built on first use (a unicast delivery or a Drain): a million-host
	// columnar run moves everything over the batch plane and must not
	// pay even an empty queue's 48 bytes per host for a plane that
	// never carries a message. Classic engines hit Drain on their first
	// tick, so for them the plane exists microseconds into Run.
	hostQ     [][]fifo[any]
	hostQOnce sync.Once
	// bufs pools byte buffers: queued batch bodies here, and the send
	// side's encode scratch (UDP datagrams, TCP frames).
	bufs sync.Pool
	// overflow is the share of dropped shed by a full queue.
	dropped  atomic.Int64
	overflow atomic.Int64
}

// fifo is a bounded first-in-first-out queue safe for concurrent use.
// Its ring starts empty and doubles on demand up to the capacity each
// push is given, and never shrinks, so a queue costs the slots its
// fullest moment needed.
type fifo[T any] struct {
	mu    sync.Mutex
	ring  []T
	head  int
	count int
}

// push appends v unless the queue already holds capacity items.
func (q *fifo[T]) push(v T, capacity int) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.count == len(q.ring) {
		if q.count >= capacity {
			return false
		}
		q.grow(capacity)
	}
	i := q.head + q.count
	if i >= len(q.ring) {
		i -= len(q.ring)
	}
	q.ring[i] = v
	q.count++
	return true
}

// grow doubles the full ring, at most to capacity, unwrapping it.
func (q *fifo[T]) grow(capacity int) {
	ring := make([]T, min(max(2*len(q.ring), 1), capacity))
	n := copy(ring, q.ring[q.head:])
	copy(ring[n:], q.ring[:q.head])
	q.ring, q.head = ring, 0
}

// pop removes and returns the oldest item, zeroing its slot so the
// ring holds no reference to it; ok is false when the queue is empty.
func (q *fifo[T]) pop() (v T, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.count == 0 {
		return v, false
	}
	var zero T
	v, q.ring[q.head] = q.ring[q.head], zero
	if q.head++; q.head == len(q.ring) {
		q.head = 0
	}
	q.count--
	return v, true
}

// newInbox builds the receive plane for the given local spans (sorted
// by Lo) with one capacity (0 means DefaultQueue) for every queue.
func newInbox(spans []Group, capacity int) *inbox {
	if capacity <= 0 {
		capacity = DefaultQueue
	}
	in := &inbox{spans: spans, capacity: capacity, batchQ: make([]fifo[*[]byte], len(spans))}
	in.bufs.New = func() any {
		b := make([]byte, 0, 512)
		return &b
	}
	return in
}

// drop counts n messages lost.
func (in *inbox) drop(n int) { in.dropped.Add(int64(n)) }

// shed counts n messages lost to a full queue.
func (in *inbox) shed(n int) {
	in.dropped.Add(int64(n))
	in.overflow.Add(int64(n))
}

// hostQueue returns the host's queue, nil when no local span owns it.
func (in *inbox) hostQueue(id gossip.NodeID) *fifo[any] {
	i := groupOf(in.spans, id)
	if i < 0 {
		return nil
	}
	in.hostQOnce.Do(func() {
		in.hostQ = make([][]fifo[any], len(in.spans))
		for s, sp := range in.spans {
			in.hostQ[s] = make([]fifo[any], sp.Hi-sp.Lo)
		}
	})
	return &in.hostQ[i][id-in.spans[i].Lo]
}

// spanAt returns the index of the local span starting at lo, or -1.
func (in *inbox) spanAt(lo gossip.NodeID) int {
	if i := groupOf(in.spans, lo); i >= 0 && in.spans[i].Lo == lo {
		return i
	}
	return -1
}

// push queues one payload for a host without blocking. False means the
// message is gone and counted: no local span owns the host, or its
// queue is full.
func (in *inbox) push(to gossip.NodeID, payload any) bool {
	q := in.hostQueue(to)
	if q == nil {
		in.drop(1)
		return false
	}
	if !q.push(payload, in.capacity) {
		in.shed(1)
		return false
	}
	return true
}

// pushBatch copies a batch body into a pooled buffer and queues it for
// the local span starting at lo, without blocking. False means all
// msgs messages are gone and counted.
func (in *inbox) pushBatch(lo gossip.NodeID, msgs int, body []byte) bool {
	i := in.spanAt(lo)
	if i < 0 {
		in.drop(msgs)
		return false
	}
	bp := in.bufs.Get().(*[]byte)
	*bp = append((*bp)[:0], body...)
	if !in.batchQ[i].push(bp, in.capacity) {
		in.bufs.Put(bp)
		in.shed(msgs)
		return false
	}
	return true
}

// deliver dispatches one message received off a socket, header already
// peeled: a batch (To is the destination span's Lo, From the message
// count) moves to its span's queue whole, anything else goes through
// the envelope decoder to a host queue. Input here is untrusted. An
// undecodable payload is one drop; so is a batch claiming more
// messages than its body has room for (a kind byte, then at least one
// byte per record) — the claim is what drop accounting would charge,
// so it must not be believed beyond what arrived.
func (in *inbox) deliver(h wire.Header, body []byte) {
	if h.Kind == kindColumnarBatch {
		if int(h.From) >= len(body) {
			in.drop(1)
			return
		}
		in.pushBatch(gossip.NodeID(h.To), int(h.From), body)
		return
	}
	_, payload, err := decodePayload(h, body)
	if err != nil {
		in.drop(1)
		return
	}
	in.push(gossip.NodeID(h.To), payload)
}

// drain invokes fn for every payload queued for the host, in arrival
// order, without blocking for more. It pops one payload per call, so a
// payload pushed while it runs is delivered too.
func (in *inbox) drain(id gossip.NodeID, fn func(payload any)) {
	q := in.hostQueue(id)
	if q == nil {
		return
	}
	for p, ok := q.pop(); ok; p, ok = q.pop() {
		fn(p)
	}
}

// drainBatch invokes fn for every batch queued for the local span
// starting at lo, in arrival order, without blocking for more. The
// body is valid only during the callback.
func (in *inbox) drainBatch(lo gossip.NodeID, fn func(body []byte)) {
	i := in.spanAt(lo)
	if i < 0 {
		return
	}
	q := &in.batchQ[i]
	for bp, ok := q.pop(); ok; bp, ok = q.pop() {
		fn(*bp)
		in.bufs.Put(bp)
	}
}
