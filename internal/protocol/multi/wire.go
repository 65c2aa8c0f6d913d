package multi

import (
	"encoding/binary"
	"fmt"
	"iter"

	"dynagg/internal/protocol/pushsumrevert"
	"dynagg/internal/protocol/sketchreset"
	"dynagg/internal/wire"
)

// The bundle's wire form, owned here so one module knows the format:
//
//	uvarint aggregate count
//	per aggregate, ascending name order:
//	    uvarint name length, name bytes, 16-byte (w, v) mass
//	flag byte: 0 = no sketch, 1 = a wire.AppendCounters matrix follows
//
// AppendBundle writes it, NewPacked validates it on arrival, and
// Node.Receive folds a validated Packed into host state in place.

// A socket transport hands Receive a KindBundle envelope still packed.
func init() { wire.Register(wire.KindBundle, NewPacked) }

// AppendEnvelope implements wire.Payload: a KindBundle envelope,
// AppendBundle's form after the header. The value receiver lets Bundle
// and *Bundle both encode.
func (b Bundle) AppendEnvelope(dst []byte, h wire.Header) ([]byte, error) {
	h.Kind = wire.KindBundle
	return AppendBundle(wire.AppendHeader(dst, h), &b)
}

// maxBundleAggregates and maxAggregateNameLen bound a bundle: a hostile
// datagram must not be able to claim an unbounded aggregate set or
// name. Real deployments carry a handful of short names.
const (
	maxBundleAggregates = 1 << 10
	maxAggregateNameLen = 256
)

// AppendBundle appends b's wire form. Count may be nil, the []uint8 of
// Emit or the *sketchreset.Counters of EmitAppend.
func AppendBundle(dst []byte, b *Bundle) ([]byte, error) {
	if len(b.Masses) > maxBundleAggregates {
		return nil, fmt.Errorf("multi: bundle with %d aggregates exceeds cap %d", len(b.Masses), maxBundleAggregates)
	}
	dst = binary.AppendUvarint(dst, uint64(len(b.Masses)))
	for i := range b.Masses {
		m := &b.Masses[i]
		if len(m.Name) > maxAggregateNameLen {
			return nil, fmt.Errorf("multi: aggregate name %d bytes exceeds cap %d", len(m.Name), maxAggregateNameLen)
		}
		dst = binary.AppendUvarint(dst, uint64(len(m.Name)))
		dst = append(dst, m.Name...)
		dst = wire.AppendMass(dst, m.Mass.W, m.Mass.V)
	}
	switch c := b.Count.(type) {
	case nil:
		return append(dst, 0), nil
	case []uint8:
		return wire.AppendCounters(append(dst, 1), c), nil
	case *sketchreset.Counters:
		return wire.AppendCounters(append(dst, 1), c.Ages), nil
	default:
		return nil, fmt.Errorf("multi: bundle count payload %T", b.Count)
	}
}

// Packed is a bundle still in its wire form: what a socket transport
// delivers to Node.Receive in place of a materialised Bundle, so a
// received counter matrix is min-folded into the host's own straight
// from its run-length bytes. NewPacked is the only way to build one, so
// the bytes inside are always a structurally valid encoding; they are
// read-only from then on and Receive keeps no reference to them.
type Packed struct {
	body []byte
}

// bundleHeader parses the leading aggregate count.
func bundleHeader(src []byte) (count int, rest []byte, err error) {
	c, used := binary.Uvarint(src)
	if used <= 0 || c > maxBundleAggregates {
		return 0, nil, fmt.Errorf("multi: bundle: bad aggregate count")
	}
	return int(c), src[used:], nil
}

// nextMass parses one (name, mass) record. name aliases src.
func nextMass(src []byte) (name []byte, m pushsumrevert.Mass, rest []byte, err error) {
	l, used := binary.Uvarint(src)
	if used <= 0 || l > maxAggregateNameLen || uint64(len(src)-used) < l {
		return nil, m, nil, fmt.Errorf("multi: bundle: bad aggregate name length")
	}
	name, src = src[used:used+int(l)], src[used+int(l):]
	m.W, m.V, rest, err = wire.DecodeMass(src)
	return name, m, rest, err
}

// NewPacked validates the bundle at the start of src — aggregate count
// and name lengths within the caps, whole 16-byte masses, a 0/1 flag
// byte and, behind a 1, a counter matrix wire.ValidateCounters accepts
// — and returns a payload holding its own copy of exactly those bytes.
func NewPacked(src []byte) (*Packed, error) {
	count, rest, err := bundleHeader(src)
	if err != nil {
		return nil, err
	}
	for ; count > 0; count-- {
		if _, _, rest, err = nextMass(rest); err != nil {
			return nil, err
		}
	}
	if len(rest) < 1 {
		return nil, fmt.Errorf("multi: bundle: missing sketch flag")
	}
	switch flag := rest[0]; flag {
	case 0:
		rest = rest[1:]
	case 1:
		if _, rest, err = wire.ValidateCounters(rest[1:], sketchreset.MaxWireCounters); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("multi: bundle: bad sketch flag %d", flag)
	}
	return &Packed{body: append([]byte(nil), src[:len(src)-len(rest)]...)}, nil
}

// Names iterates the aggregate names the bundle carries mass for, in
// wire order. Each name aliases the payload's bytes: valid for the
// iteration step only, and not to be written.
func (p *Packed) Names() iter.Seq[[]byte] {
	return func(yield func([]byte) bool) {
		count, rest, _ := bundleHeader(p.body)
		for ; count > 0; count-- {
			var name []byte
			name, _, rest, _ = nextMass(rest)
			if !yield(name) {
				return
			}
		}
	}
}

// receivePacked is Receive for the wire form: every mass goes to its
// aggregate (looked up by the name's bytes, no string built unless the
// name is new to this host) and the counter matrix, if present, is
// min-folded from its run-length bytes by the sketch host.
func (n *Node) receivePacked(p *Packed) {
	count, rest, _ := bundleHeader(p.body)
	for ; count > 0; count-- {
		var name []byte
		name, n.rx, rest, _ = nextMass(rest)
		agg, ok := n.aggs[string(name)]
		if !ok {
			if agg = n.aggFor(string(name)); agg == nil {
				continue
			}
		}
		agg.Receive(&n.rx)
	}
	if rest[0] == 1 {
		n.count.MergeWire(rest[1:])
	}
}
