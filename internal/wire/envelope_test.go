package wire

import (
	"bytes"
	"testing"
)

func TestHeaderRoundTrip(t *testing.T) {
	headers := []Header{
		{},
		{Kind: 1, To: 0, From: 0, Tick: 0},
		{Kind: 7, To: 3, From: 99999, Tick: 12345},
		{Kind: 255, To: 1<<31 - 1, From: 1<<31 - 1, Tick: 1<<31 - 1},
	}
	for _, h := range headers {
		buf := AppendHeader(nil, h)
		tail := []byte{0xAA, 0xBB}
		got, rest, err := DecodeHeader(append(buf, tail...))
		if err != nil {
			t.Fatalf("DecodeHeader(%+v): %v", h, err)
		}
		if got != h {
			t.Errorf("round trip: got %+v, want %+v", got, h)
		}
		if !bytes.Equal(rest, tail) {
			t.Errorf("rest = %x, want %x", rest, tail)
		}
	}
}

func TestHeaderDecodeErrors(t *testing.T) {
	cases := map[string][]byte{
		"empty":            nil,
		"one byte":         {envelopeVersion},
		"bad version":      {99, 1, 0, 0, 0},
		"truncated fields": {envelopeVersion, 1, 0x80},
		"missing tick":     {envelopeVersion, 1, 0, 0},
		"field overflow":   append([]byte{envelopeVersion, 1}, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F),
	}
	for name, src := range cases {
		if _, _, err := DecodeHeader(src); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

func TestValidateCounters(t *testing.T) {
	counters := []uint8{0, 0, 0, 3, 3, 255, 255, 255}
	buf := AppendCounters(nil, counters)
	n, rest, err := ValidateCounters(append(buf, 0xEE), 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(counters) {
		t.Errorf("elements = %d, want %d", n, len(counters))
	}
	if !bytes.Equal(rest, []byte{0xEE}) {
		t.Errorf("rest = %x", rest)
	}
	if _, _, err := ValidateCounters(buf, 4); err == nil {
		t.Error("element count above maxElements accepted")
	}
	if _, _, err := ValidateCounters(AppendCounters(nil, nil), 4); err == nil {
		t.Error("zero element count accepted")
	}
	if _, _, err := ValidateCounters(buf[:len(buf)-1], 1<<10); err == nil {
		t.Error("truncated encoding accepted")
	}
}
