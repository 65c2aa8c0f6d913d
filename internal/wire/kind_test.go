package wire

import (
	"errors"
	"strings"
	"testing"
)

// TestRegisterTwicePanics pins the one-owner rule of the decoder
// table: a second registration of a kind panics, naming the kind, and
// leaves the first decoder in place. The tests borrow the retired
// kinds 5 and 6, which no package registers.
func TestRegisterTwicePanics(t *testing.T) {
	const kind = 5
	defer func() { decoders[kind] = nil }()
	Register(kind, func(body []byte) (int, error) { return len(body), nil })
	func() {
		defer func() {
			r := recover()
			if r == nil || !strings.Contains(r.(string), "kind 5 registered twice") {
				t.Errorf("second registration recovered %v, want a kind-5 panic", r)
			}
		}()
		Register(kind, func([]byte) (string, error) { return "", nil })
	}()
	if p, err := DecodePayload(kind, []byte{1, 2, 3}); err != nil || p != 3 {
		t.Errorf("after the refused registration: %v, %v; want the first decoder's 3", p, err)
	}
}

// TestDecodePayloadErrors pins the two ways a decode fails: a kind no
// package registered, and a registered decoder's own error, which
// hands back a nil payload rather than a typed zero value.
func TestDecodePayloadErrors(t *testing.T) {
	const kind = 6
	if p, err := DecodePayload(kind, nil); err == nil || p != nil {
		t.Errorf("unregistered kind: %v, %v; want an error", p, err)
	}
	defer func() { decoders[kind] = nil }()
	bad := errors.New("short body")
	Register(kind, func([]byte) (*int, error) { return new(int), bad })
	if p, err := DecodePayload(kind, nil); err != bad || p != nil {
		t.Errorf("failing decoder: %v, %v; want nil and its error", p, err)
	}
}
