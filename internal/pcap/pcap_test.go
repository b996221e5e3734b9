package pcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"vcalab/internal/netem"
	"vcalab/internal/rtp"
	"vcalab/internal/vca"
)

func TestGlobalHeader(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if len(b) != 24 {
		t.Fatalf("global header %d bytes, want 24", len(b))
	}
	if binary.LittleEndian.Uint32(b) != 0xa1b2c3d4 {
		t.Errorf("magic = %x", binary.LittleEndian.Uint32(b))
	}
	if binary.LittleEndian.Uint32(b[20:]) != 1 {
		t.Errorf("link type = %d, want 1 (Ethernet)", binary.LittleEndian.Uint32(b[20:]))
	}
}

func TestWriteNetemRecord(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	pkt := &netem.Packet{
		Size: 500,
		From: netem.Addr{Host: "c1", Port: 5004},
		To:   netem.Addr{Host: "sfu", Port: 5004},
		Payload: &vca.MediaPacket{
			SSRC: 42, Seq: 1234, FrameEnd: true,
		},
		SentAt: 1500 * time.Millisecond,
	}
	if err := w.WriteNetem(1500*time.Millisecond, pkt); err != nil {
		t.Fatal(err)
	}
	if w.Packets != 1 {
		t.Errorf("Packets = %d", w.Packets)
	}
	rec := buf.Bytes()[24:]
	tsSec := binary.LittleEndian.Uint32(rec[0:])
	tsUsec := binary.LittleEndian.Uint32(rec[4:])
	if tsSec != 1 || tsUsec != 500000 {
		t.Errorf("timestamp = %d.%06d, want 1.500000", tsSec, tsUsec)
	}
	incl := binary.LittleEndian.Uint32(rec[8:])
	if int(incl) != 14+500 {
		t.Errorf("frame length = %d, want 514 (ethernet + IP size)", incl)
	}
	frame := rec[16 : 16+incl]
	// EtherType IPv4.
	if binary.BigEndian.Uint16(frame[12:]) != 0x0800 {
		t.Error("not an IPv4 frame")
	}
	ip := frame[14:]
	if ip[0] != 0x45 || ip[9] != 17 {
		t.Errorf("IP header wrong: version %x proto %d", ip[0], ip[9])
	}
	if got := binary.BigEndian.Uint16(ip[2:]); got != 500 {
		t.Errorf("IP total length = %d, want 500", got)
	}
	// UDP ports.
	udp := ip[20:]
	if binary.BigEndian.Uint16(udp[0:]) != 5004 || binary.BigEndian.Uint16(udp[2:]) != 5004 {
		t.Error("UDP ports wrong")
	}
	// RTP payload parses and matches.
	var p rtp.Packet
	if err := p.Unmarshal(udp[8:]); err != nil {
		t.Fatalf("RTP unmarshal: %v", err)
	}
	if p.SequenceNumber != 1234 || p.SSRC != 42 || !p.Marker {
		t.Errorf("RTP header mismatch: %+v", p.Header)
	}
}

func TestIPChecksumValid(t *testing.T) {
	pkt := &netem.Packet{Size: 100, From: netem.Addr{Host: "a", Port: 1}, To: netem.Addr{Host: "b", Port: 2}}
	frame, err := Frame(pkt)
	if err != nil {
		t.Fatal(err)
	}
	ip := frame[14:34]
	// Verify: sum over header including checksum must be 0xffff.
	var sum uint32
	for i := 0; i < 20; i += 2 {
		sum += uint32(binary.BigEndian.Uint16(ip[i:]))
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	if uint16(sum) != 0xffff {
		t.Errorf("IP checksum invalid: folded sum %x", sum)
	}
}

func TestHostIPStable(t *testing.T) {
	a, b := HostIP("c1"), HostIP("c1")
	if a != b {
		t.Error("HostIP not deterministic")
	}
	if HostIP("c1") == HostIP("c2") {
		t.Error("distinct hosts share an IP")
	}
	if a[0] != 10 {
		t.Errorf("not in 10.0.0.0/8: %v", a)
	}
}

func TestNonMediaPayloadZeroFilled(t *testing.T) {
	pkt := &netem.Packet{Size: 200, From: netem.Addr{Host: "a", Port: 80}, To: netem.Addr{Host: "b", Port: 81},
		Payload: "tcp segment"}
	frame, err := Frame(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) != 14+200 {
		t.Errorf("frame length %d, want 214", len(frame))
	}
}

func TestTinyPacketClamped(t *testing.T) {
	pkt := &netem.Packet{Size: 10, From: netem.Addr{Host: "a"}, To: netem.Addr{Host: "b"}}
	frame, err := Frame(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) < 14+28 {
		t.Errorf("frame below minimum: %d", len(frame))
	}
}

// failAfter accepts the first left bytes, then fails every write; writes
// counts the calls that reached it.
type failAfter struct{ left, writes int }

func (f *failAfter) Write(p []byte) (int, error) {
	f.writes++
	if len(p) > f.left {
		n := f.left
		f.left = 0
		return n, errors.New("disk full")
	}
	f.left -= len(p)
	return len(p), nil
}

// TestWriteErrorSticks: a write that fails partway through the third
// record leaves Packets at the two whole ones, Err set, and every later
// write returning that error without reaching the underlying writer.
func TestWriteErrorSticks(t *testing.T) {
	pkt := &netem.Packet{Size: 100, From: netem.Addr{Host: "a", Port: 1}, To: netem.Addr{Host: "b", Port: 2}}
	const rec = 16 + 14 + 100
	for _, k := range []int{24 + 2*rec, 24 + 2*rec + 10, 24 + 2*rec + 20} { // at, inside the header, inside the frame
		fw := &failAfter{left: k}
		w, err := NewWriter(fw)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			err = w.WriteNetem(time.Duration(i)*time.Millisecond, pkt)
			if (err != nil) != (i >= 2) {
				t.Errorf("k=%d write %d: err %v, want one from the third write on", k, i, err)
			}
		}
		if w.Packets != 2 || w.Err() == nil || w.Err() != err {
			t.Errorf("k=%d: Packets %d, Err %v (last write %v); want 2 and the one sticky error", k, w.Packets, w.Err(), err)
		}
		if calls := fw.writes; calls > 1+2*2+2 {
			t.Errorf("k=%d: %d writes reached the underlying writer, want none after the failing one", k, calls)
		}
	}
}
