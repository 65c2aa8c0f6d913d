package wire

import "fmt"

// Envelope kinds: the Header byte that says which encoding follows.
// This block is the one table of every kind number in use. A payload
// kind's encoder (Payload) and decoder (Register) live with the
// protocol package that owns the payload; the transport's own kinds
// (batch, announce, membership) are framed by the transport.
//
// Kinds 1, 3, 5 and 6 are retired as envelope kinds, not reused: an
// envelope of any of them decodes as unknown, and the other kinds keep
// their numbers. Kind 1 tagged plain Push-Sum mass before Push-Sum
// became Push-Sum-Revert at λ = 0; kind 3 tagged moments (w, v, q)
// masses, whose number and bytes live on in columnar batch records
// only (KindMoments); kinds 5 and 6 tagged sketch bit vectors and
// extremes candidate tables, which no live path sent.
const (
	// KindMass is a Push-Sum-Revert (w, v) mass (AppendMass), as an
	// envelope and as a columnar batch record.
	KindMass uint8 = 2
	// KindMoments tags a moments population's (w, v, q) columnar batch
	// records (AppendMass3). No envelope decoder is registered for it.
	KindMoments uint8 = 3
	// KindCounters is a Count-Sketch-Reset counter matrix
	// (AppendCounters), as an envelope and as a columnar batch record.
	KindCounters uint8 = 4
	// KindBatch tags a columnar batch datagram: the header's To is the
	// destination group index (on TCP: the destination group's Lo host
	// id, which stays stable while bootstrap is still inserting groups
	// and shifting indices), From the encoded message count, and the
	// body an opaque run of protocol-framed records the columnar live
	// path decodes straight into state columns.
	KindBatch uint8 = 7
	// KindAnnounce and KindMembership are the TCP bootstrap control
	// frames: a joining process announces its [Lo,Hi) span and listen
	// address; the seed replies with the membership table it knows (or
	// a rejection when the span conflicts).
	KindAnnounce   uint8 = 8
	KindMembership uint8 = 9
	// KindBundle is a multi-protocol bundle: named Push-Sum-Revert
	// masses plus an optional Count-Sketch-Reset counter matrix, the
	// paper's Figure 7 deployment in one envelope.
	KindBundle uint8 = 10
)

// Payload is implemented by every payload a socket transport can
// carry. AppendEnvelope appends h with h.Kind set to the payload's
// kind, then the payload's encoding; an error means this payload has
// no wire form (one over a format cap, or a type that refuses), and the
// transport counts the message as a drop.
type Payload interface {
	AppendEnvelope(dst []byte, h Header) ([]byte, error)
}

// decoders maps a payload kind to its registered decoder. Register
// writes it from package init only, so reads need no lock.
var decoders [256]func(body []byte) (any, error)

// Register installs the decoder for a payload kind: decode validates
// the bytes after the header and returns the payload the owning
// protocol's Receive accepts, keeping no reference to body. The owning
// package calls it once, from init; a second registration of a kind
// panics.
func Register[P any](kind uint8, decode func(body []byte) (P, error)) {
	if decoders[kind] != nil {
		panic(fmt.Sprintf("wire: kind %d registered twice", kind))
	}
	decoders[kind] = func(body []byte) (any, error) {
		p, err := decode(body)
		if err != nil {
			return nil, err
		}
		return p, nil
	}
}

// DecodePayload decodes body, the bytes after a header of the given
// kind, with that kind's registered decoder. A kind no linked package
// registered is an error.
func DecodePayload(kind uint8, body []byte) (any, error) {
	if d := decoders[kind]; d != nil {
		return d(body)
	}
	return nil, fmt.Errorf("wire: unknown payload kind %d", kind)
}
