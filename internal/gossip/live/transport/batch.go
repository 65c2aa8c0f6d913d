package transport

import "dynagg/internal/gossip"

// Batcher is the bulk plane of a transport: where Transport moves one
// boxed payload per call, a Batcher moves one encoded *batch* per call
// — a byte slice holding every message one shard addressed to one host
// group this tick — so a single syscall (or channel operation) serves
// a whole shard's wave. The live engine's ColumnarPopulation encodes
// straight from protocol columns into the batch body and decodes
// straight back into column deliveries; the transport never inspects
// the body beyond moving it.
//
// Groups partition the host population into contiguous [lo, hi)
// ranges, mirroring the UDP transport's socket groups; BatchGroups
// and BatchGroup expose that layout so callers can route by
// destination id and drain the groups they own.
//
// Accounting is per *message*, not per batch: SendBatch's msgs count
// is added to Sent on acceptance or to Dropped on loss, so Sent and
// Dropped stay comparable between the classic and columnar paths (and
// loss-rate assertions keep their meaning). A batch is carried by one
// datagram, so one loss event drops all its messages at once — the
// per-message loss *rate* is preserved in expectation, the
// independence of individual losses is not (real radios burst-lose
// the same way).
//
// Implementations must be safe for concurrent use. The body passed to
// SendBatch is only valid for the duration of the call (the caller
// reuses its encode buffer); the body passed to a DrainBatch callback
// is only valid for the duration of the callback.
type Batcher interface {
	// BatchGroups returns the number of host groups, 0 if the
	// transport has no batch plane (see AsBatcher).
	BatchGroups() int
	// BatchGroup returns group g's host range [lo, hi).
	BatchGroup(g int) (lo, hi gossip.NodeID)
	// MaxBatchBody returns the largest body SendBatch accepts; larger
	// bodies are dropped whole.
	MaxBatchBody() int
	// SendBatch attempts to deliver a batch of msgs encoded messages
	// to group, without blocking. False means the whole batch is gone
	// (and its msgs counted in Dropped).
	SendBatch(group, tick, msgs int, body []byte) bool
	// DrainBatch invokes fn for every batch currently queued for the
	// group, in arrival order, without blocking for more. Only groups
	// the transport receives for locally yield batches.
	DrainBatch(group int, fn func(body []byte))
}

// AsBatcher reports whether t exposes a usable batch plane, unwrapping
// capability-forwarding layers: a Lossy injector is a Batcher exactly
// when its inner transport is one (loss is still injected — the
// injector forwards batches through its own drop/delay logic, never
// around it).
func AsBatcher(t Transport) (Batcher, bool) {
	b, ok := t.(Batcher)
	if !ok || b.BatchGroups() == 0 {
		return nil, false
	}
	return b, true
}

// maxBatchHeader is the worst-case wire.Header size a batch datagram
// spends on framing: version + kind bytes plus three maximal uvarints.
const maxBatchHeader = 2 + 3*5

// maxUDPPayload is the largest payload a single IPv4 UDP datagram can
// carry: 65535 minus the 8-byte UDP and 20-byte IP headers. Writes
// above it fail with EMSGSIZE even on loopback, so every batch plane
// caps its bodies here — a full-size batch must be one *sendable*
// datagram, not merely one encodable buffer.
const maxUDPPayload = 65507

// Compile-time wiring of the batch planes.
var (
	_ Batcher = (*Channel)(nil)
	_ Batcher = (*UDP)(nil)
	_ Batcher = (*TCP)(nil)
	_ Batcher = (*Lossy)(nil)
)
