// Package rtp implements the RTP wire format of RFC 3550 plus the
// loss-recovery state machines the VCA models run on it (RTX rings, the
// NACK queue, TWCC recorder and send history).
//
// The emulator moves typed packets for speed, but every media packet it
// moves carries a real, marshalable RTP header, so traces written by
// internal/pcap decode in standard tools. Feedback (reports, FIR, NACK,
// TWCC) travels as typed messages charged at their wire size and has no
// codec here. This package has no dependency on the simulator and is
// usable standalone.
package rtp

import (
	"encoding/binary"
	"errors"
)

// Version is the only RTP version this package accepts (RFC 3550).
const Version = 2

// HeaderSize is the size of the fixed RTP header, the only header this
// package writes or reads: no CSRC list, no extension, no padding.
const HeaderSize = 12

// Errors returned by unmarshalling.
var (
	ErrShortPacket = errors.New("rtp: packet too short")
	ErrBadVersion  = errors.New("rtp: unsupported version")
	// errUnsupported rejects a header with a CSRC count, the extension
	// bit or the padding bit set: Marshal cannot write those back.
	errUnsupported = errors.New("rtp: CSRC list, header extension or padding not supported")
)

// Header is the fixed RTP header.
type Header struct {
	Marker         bool
	PayloadType    uint8
	SequenceNumber uint16
	Timestamp      uint32
	SSRC           uint32
}

// MarshalSize returns the number of bytes Marshal will produce.
func (h *Header) MarshalSize() int { return HeaderSize }

// Marshal serializes the header.
func (h *Header) Marshal() []byte {
	buf := make([]byte, HeaderSize)
	buf[0] = Version << 6
	buf[1] = h.PayloadType & 0x7f
	if h.Marker {
		buf[1] |= 1 << 7
	}
	binary.BigEndian.PutUint16(buf[2:], h.SequenceNumber)
	binary.BigEndian.PutUint32(buf[4:], h.Timestamp)
	binary.BigEndian.PutUint32(buf[8:], h.SSRC)
	return buf
}

// Unmarshal parses an RTP header from buf and returns the number of header
// bytes consumed.
func (h *Header) Unmarshal(buf []byte) (int, error) {
	if len(buf) < HeaderSize {
		return 0, ErrShortPacket
	}
	if buf[0]>>6 != Version {
		return 0, ErrBadVersion
	}
	if buf[0]&0x3f != 0 {
		return 0, errUnsupported
	}
	h.Marker = buf[1]&(1<<7) != 0
	h.PayloadType = buf[1] & 0x7f
	h.SequenceNumber = binary.BigEndian.Uint16(buf[2:])
	h.Timestamp = binary.BigEndian.Uint32(buf[4:])
	h.SSRC = binary.BigEndian.Uint32(buf[8:])
	return HeaderSize, nil
}

// Packet is an RTP header plus payload.
type Packet struct {
	Header
	Payload []byte
}

// Marshal serializes the packet.
func (p *Packet) Marshal() []byte { return append(p.Header.Marshal(), p.Payload...) }

// Unmarshal parses an RTP packet.
func (p *Packet) Unmarshal(buf []byte) error {
	n, err := p.Header.Unmarshal(buf)
	if err != nil {
		return err
	}
	p.Payload = append([]byte(nil), buf[n:]...)
	return nil
}

// MarshalSize returns the serialized size of the packet.
func (p *Packet) MarshalSize() int { return p.Header.MarshalSize() + len(p.Payload) }

// SeqLess reports whether sequence number a is before b in RFC 3550
// wraparound arithmetic.
func SeqLess(a, b uint16) bool {
	return a != b && b-a < 1<<15
}

// SeqDiff returns the forward distance from a to b, accounting for
// wraparound (b - a as a signed quantity).
func SeqDiff(a, b uint16) int {
	d := int(int16(b - a))
	return d
}
