package rtp

import (
	"bytes"
	"reflect"
	"testing"
)

// The two parsers are the package's untrusted-input surface: whatever the
// bytes, they return an error or a value, never panic; and a value they
// accept marshals back to the bytes it was read from and re-reads equal.
// The seed corpus under testdata/fuzz (a plain header, a CSRC list, the
// extension bit, and one truncation per field boundary) runs as a unit
// test on every `go test`.

func FuzzHeaderUnmarshal(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var h Header
		n, err := h.Unmarshal(data)
		if err != nil {
			return
		}
		if n < HeaderSize || n > len(data) || n != h.MarshalSize() {
			t.Fatalf("consumed %d of %d bytes, MarshalSize %d", n, len(data), h.MarshalSize())
		}
		out, err := h.Marshal()
		if err != nil {
			t.Fatalf("accepted header does not marshal: %v", err)
		}
		if !bytes.Equal(out, data[:n]) {
			t.Fatalf("marshal = %x, read from %x", out, data[:n])
		}
		var again Header
		if _, err := again.Unmarshal(out); err != nil || !reflect.DeepEqual(again, h) {
			t.Fatalf("re-read %+v (%v), want %+v", again, err, h)
		}
	})
}

func FuzzPacketUnmarshal(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var p Packet
		if err := p.Unmarshal(data); err != nil {
			return
		}
		out, err := p.Marshal()
		if err != nil {
			t.Fatalf("accepted packet does not marshal: %v", err)
		}
		if !bytes.Equal(out, data) || len(out) != p.MarshalSize() {
			t.Fatalf("marshal = %x (MarshalSize %d), read from %x", out, p.MarshalSize(), data)
		}
		var again Packet
		if err := again.Unmarshal(out); err != nil || !reflect.DeepEqual(again, p) {
			t.Fatalf("re-read %+v (%v), want %+v", again, err, p)
		}
	})
}
