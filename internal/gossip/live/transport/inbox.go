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
	batchQ   []chan batchItem
	// hostQ, parallel to spans, holds one queue per local host. It is
	// built on first use (a unicast delivery or a Drain): a million-host
	// columnar run moves everything over the batch plane, and a
	// quarter-gigabyte of buffered channels per 64k hosts must not be
	// paid for a plane that never carries a message. Classic engines
	// hit Drain on their first tick, so for them the plane exists
	// microseconds into Run.
	hostQ     [][]chan any
	hostQOnce sync.Once
	// bufs pools byte buffers: queued batch bodies here, and the send
	// side's encode scratch (UDP datagrams, TCP frames).
	bufs sync.Pool
	// overflow is the share of dropped shed by a full queue.
	dropped  atomic.Int64
	overflow atomic.Int64
}

// batchItem is one queued batch body, in a pooled buffer.
type batchItem struct{ buf *[]byte }

// newInbox builds the receive plane for the given local spans (sorted
// by Lo) with one capacity (0 means DefaultQueue) for every queue.
func newInbox(spans []Group, capacity int) *inbox {
	if capacity <= 0 {
		capacity = DefaultQueue
	}
	in := &inbox{spans: spans, capacity: capacity, batchQ: make([]chan batchItem, len(spans))}
	for i := range in.batchQ {
		in.batchQ[i] = make(chan batchItem, capacity)
	}
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
func (in *inbox) hostQueue(id gossip.NodeID) chan any {
	i := groupOf(in.spans, id)
	if i < 0 {
		return nil
	}
	in.hostQOnce.Do(func() {
		in.hostQ = make([][]chan any, len(in.spans))
		for s, sp := range in.spans {
			in.hostQ[s] = make([]chan any, sp.Hi-sp.Lo)
			for h := range in.hostQ[s] {
				in.hostQ[s][h] = make(chan any, in.capacity)
			}
		}
	})
	return in.hostQ[i][id-in.spans[i].Lo]
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
	select {
	case q <- payload:
		return true
	default:
		in.shed(1)
		return false
	}
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
	select {
	case in.batchQ[i] <- batchItem{buf: bp}:
		return true
	default:
		in.bufs.Put(bp)
		in.shed(msgs)
		return false
	}
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
// order, without blocking for more.
func (in *inbox) drain(id gossip.NodeID, fn func(payload any)) {
	q := in.hostQueue(id)
	if q == nil {
		return
	}
	for {
		select {
		case p := <-q:
			fn(p)
		default:
			return
		}
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
	for {
		select {
		case it := <-in.batchQ[i]:
			fn(*it.buf)
			in.bufs.Put(it.buf)
		default:
			return
		}
	}
}
