package rtp

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{
		Marker:         true,
		PayloadType:    96,
		SequenceNumber: 0xBEEF,
		Timestamp:      0xDEADBEEF,
		SSRC:           0x12345678,
		CSRC:           []uint32{1, 2, 3},
	}
	buf, err := h.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != h.MarshalSize() {
		t.Errorf("len = %d, MarshalSize = %d", len(buf), h.MarshalSize())
	}
	var got Header
	n, err := got.Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Errorf("consumed %d of %d bytes", n, len(buf))
	}
	if got.Marker != h.Marker || got.PayloadType != h.PayloadType ||
		got.SequenceNumber != h.SequenceNumber || got.Timestamp != h.Timestamp ||
		got.SSRC != h.SSRC || len(got.CSRC) != 3 || got.CSRC[2] != 3 {
		t.Errorf("round trip mismatch: %+v vs %+v", got, h)
	}
}

func TestHeaderExtension(t *testing.T) {
	h := Header{
		PayloadType:      96,
		Extension:        true,
		ExtensionProfile: 0xBEDE,
		ExtensionData:    []byte{1, 2, 3, 4, 5, 6, 7, 8},
	}
	buf, err := h.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var got Header
	if _, err := got.Unmarshal(buf); err != nil {
		t.Fatal(err)
	}
	if got.ExtensionProfile != 0xBEDE || !bytes.Equal(got.ExtensionData, h.ExtensionData) {
		t.Errorf("extension mismatch: %+v", got)
	}
}

func TestHeaderExtensionBadLength(t *testing.T) {
	h := Header{Extension: true, ExtensionData: []byte{1, 2, 3}}
	if _, err := h.Marshal(); err == nil {
		t.Fatal("marshal with 3-byte extension succeeded, want error")
	}
}

func TestHeaderTooManyCSRCs(t *testing.T) {
	h := Header{CSRC: make([]uint32, 16)}
	if _, err := h.Marshal(); err == nil {
		t.Fatal("marshal with 16 CSRCs succeeded, want error")
	}
}

func TestUnmarshalShortAndBadVersion(t *testing.T) {
	var h Header
	if _, err := h.Unmarshal([]byte{0x80, 0, 0}); err != ErrShortPacket {
		t.Errorf("short: err = %v, want ErrShortPacket", err)
	}
	buf := make([]byte, 12)
	buf[0] = 1 << 6 // version 1
	if _, err := h.Unmarshal(buf); err != ErrBadVersion {
		t.Errorf("bad version: err = %v, want ErrBadVersion", err)
	}
}

func TestPacketRoundTrip(t *testing.T) {
	p := Packet{
		Header:  Header{PayloadType: 111, SequenceNumber: 7, SSRC: 42},
		Payload: []byte("opus frame bytes"),
	}
	buf, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var got Packet
	if err := got.Unmarshal(buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Payload, p.Payload) {
		t.Errorf("payload = %q, want %q", got.Payload, p.Payload)
	}
}

func TestSeqArithmetic(t *testing.T) {
	cases := []struct {
		a, b uint16
		less bool
		diff int
	}{
		{1, 2, true, 1},
		{2, 1, false, -1},
		{65535, 0, true, 1},
		{0, 65535, false, -1},
		{65530, 5, true, 11},
		{100, 100, false, 0},
	}
	for _, c := range cases {
		if got := SeqLess(c.a, c.b); got != c.less {
			t.Errorf("SeqLess(%d,%d) = %v, want %v", c.a, c.b, got, c.less)
		}
		if got := SeqDiff(c.a, c.b); got != c.diff {
			t.Errorf("SeqDiff(%d,%d) = %d, want %d", c.a, c.b, got, c.diff)
		}
	}
}

func TestQuickHeaderRoundTrip(t *testing.T) {
	f := func(marker bool, pt uint8, seq uint16, ts, ssrc uint32) bool {
		h := Header{Marker: marker, PayloadType: pt & 0x7f, SequenceNumber: seq, Timestamp: ts, SSRC: ssrc}
		buf, err := h.Marshal()
		if err != nil {
			return false
		}
		var got Header
		n, err := got.Unmarshal(buf)
		return err == nil && n == len(buf) &&
			got.Marker == h.Marker && got.PayloadType == h.PayloadType &&
			got.SequenceNumber == seq && got.Timestamp == ts && got.SSRC == ssrc
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkRTPMarshal(b *testing.B) {
	p := Packet{Header: Header{PayloadType: 96, SequenceNumber: 1, SSRC: 42}, Payload: make([]byte, 1200)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.Marshal(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRTPUnmarshal(b *testing.B) {
	p := Packet{Header: Header{PayloadType: 96, SequenceNumber: 1, SSRC: 42}, Payload: make([]byte, 1200)}
	buf, _ := p.Marshal()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var q Packet
		if err := q.Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}
