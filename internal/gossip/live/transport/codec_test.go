package transport

import (
	"encoding/hex"
	"os/exec"
	"reflect"
	"strings"
	"testing"

	"dynagg/internal/protocol/multi"
	"dynagg/internal/protocol/pushsumrevert"
	"dynagg/internal/protocol/sketchreset"
	"dynagg/internal/wire"
)

// decodeEnvelope parses one datagram the way the readers do: the
// header, then the payload through its kind's registered decoder.
func decodeEnvelope(src []byte) (wire.Header, any, error) {
	h, rest, err := wire.DecodeHeader(src)
	if err != nil {
		return wire.Header{}, nil, err
	}
	p, err := wire.DecodePayload(h.Kind, rest)
	if err != nil {
		return wire.Header{}, nil, err
	}
	return h, p, nil
}

// codecAges is a small counter matrix with runs the RLE folds and
// ages it does not: what the envelope goldens encode.
var codecAges = []uint8{0, 0, 1, 255, 255, 255, 255, 3}

// encodableForms is every payload form a socket transport encodes,
// with the envelope bytes each produces from host 1 to host 6 at tick
// 9, recorded from the codec as it was when the transport type-switched
// over the protocols itself, and the payload the reader hands Drain.
func encodableForms(t *testing.T) []struct {
	name    string
	payload any
	env     string
	decoded any
} {
	t.Helper()
	masses := []multi.NamedMass{
		{Name: "load", Mass: pushsumrevert.Mass{W: 0.5, V: 2.25}},
		{Name: "temp", Mass: pushsumrevert.Mass{W: 0.125, V: -7}},
	}
	mustPacked := func(p any, err error) any {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	counters := wire.AppendCounters(nil, codecAges)
	bundleWith, err := multi.AppendBundle(nil, &multi.Bundle{Count: codecAges, Masses: masses})
	if err != nil {
		t.Fatal(err)
	}
	bundleBare, err := multi.AppendBundle(nil, &multi.Bundle{Masses: masses[:1]})
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name    string
		payload any
		env     string
		decoded any
	}{
		{"Mass", pushsumrevert.Mass{W: 0.5, V: 24.75}, "0102060109000000000000e03f0000000000c03840",
			pushsumrevert.Mass{W: 0.5, V: 24.75}},
		{"*Mass", &pushsumrevert.Mass{W: -1, V: 3}, "0102060109000000000000f0bf0000000000000840",
			pushsumrevert.Mass{W: -1, V: 3}},
		{"*Counters", &sketchreset.Counters{Ages: codecAges}, "0104060109080200010104ff0103",
			mustPacked(sketchreset.NewPacked(counters))},
		{"Bundle", multi.Bundle{Count: &sketchreset.Counters{Ages: codecAges}, Masses: masses}, "010a06010902046c6f6164000000000000e03f00000000000002400474656d70000000000000c03f0000000000001cc001080200010104ff0103",
			mustPacked(multi.NewPacked(bundleWith))},
		{"*Bundle", &multi.Bundle{Count: codecAges, Masses: masses}, "010a06010902046c6f6164000000000000e03f00000000000002400474656d70000000000000c03f0000000000001cc001080200010104ff0103",
			mustPacked(multi.NewPacked(bundleWith))},
		{"Bundle without sketch", multi.Bundle{Masses: masses[:1]}, "010a06010901046c6f6164000000000000e03f000000000000024000",
			mustPacked(multi.NewPacked(bundleBare))},
	}
}

// TestEnvelopeBytesGolden pins the envelope of every encodable payload
// form byte for byte.
func TestEnvelopeBytesGolden(t *testing.T) {
	for _, f := range encodableForms(t) {
		got, err := appendEnvelope(nil, 1, 6, 9, f.payload)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if hex.EncodeToString(got) != f.env {
			t.Errorf("%s envelope\n got %x\nwant %s", f.name, got, f.env)
		}
	}
}

// TestEnvelopeRoundTrip pins what the reader hands Drain for each
// encodable form: the same Go type and value as before the protocols
// owned their codecs.
func TestEnvelopeRoundTrip(t *testing.T) {
	for _, f := range encodableForms(t) {
		env, err := appendEnvelope(nil, 1, 6, 9, f.payload)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		h, got, err := decodeEnvelope(env)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if h.To != 6 || h.From != 1 || h.Tick != 9 {
			t.Errorf("%s: header %+v", f.name, h)
		}
		if !reflect.DeepEqual(got, f.decoded) {
			t.Errorf("%s decoded as %T %+v, want %T %+v", f.name, got, got, f.decoded, f.decoded)
		}
	}
}

// TestUnencodablePayloadsAreRefused pins the payloads no envelope
// carries: a moments mass (its kind is retired, and encoding it as a
// plain mass would drop Q), a bare counter slice, and foreign types.
func TestUnencodablePayloadsAreRefused(t *testing.T) {
	mm := pushsumrevert.MomentsMass{Mass: pushsumrevert.Mass{W: 1, V: 2}, Q: 3}
	for _, p := range []any{&mm, mm, sketchreset.Counters{Ages: codecAges}, codecAges, 42, nil} {
		if env, err := appendEnvelope(nil, 1, 6, 9, p); err == nil || !strings.Contains(err.Error(), "no wire encoding") {
			t.Errorf("%T: encoded as %x (err %v), want a no-wire-encoding error", p, env, err)
		}
	}
}

// TestTransportImportsNoProtocol pins the layering: the transport
// frames, routes and counts bytes while each protocol package owns its
// envelope codec, so no protocol is among the package's build
// dependencies (its tests may import them). `go test` puts its own
// toolchain first on PATH, so this lists with the go that builds the test.
func TestTransportImportsNoProtocol(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go command on PATH")
	}
	out, err := exec.Command("go", "list", "-deps", ".").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	for _, pkg := range strings.Fields(string(out)) {
		if strings.HasPrefix(pkg, "dynagg/internal/protocol/") {
			t.Errorf("transport depends on %s", pkg)
		}
	}
}
