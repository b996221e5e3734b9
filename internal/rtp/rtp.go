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
	"fmt"
)

// Version is the only RTP version this package accepts (RFC 3550).
const Version = 2

// HeaderSize is the size of a fixed RTP header with no CSRCs or extension.
const HeaderSize = 12

// Errors returned by unmarshalling.
var (
	ErrShortPacket = errors.New("rtp: packet too short")
	ErrBadVersion  = errors.New("rtp: unsupported version")
)

// Header is the fixed RTP header plus CSRC list and one optional
// profile-defined extension.
type Header struct {
	Padding        bool
	Marker         bool
	PayloadType    uint8
	SequenceNumber uint16
	Timestamp      uint32
	SSRC           uint32
	CSRC           []uint32

	// Extension, when true, appends a single RFC 3550 §5.3.1 header
	// extension with the given profile and payload (payload length must
	// be a multiple of 4).
	Extension        bool
	ExtensionProfile uint16
	ExtensionData    []byte
}

// MarshalSize returns the number of bytes Marshal will produce.
func (h *Header) MarshalSize() int {
	n := HeaderSize + 4*len(h.CSRC)
	if h.Extension {
		n += 4 + len(h.ExtensionData)
	}
	return n
}

// Marshal serializes the header.
func (h *Header) Marshal() ([]byte, error) {
	if len(h.CSRC) > 15 {
		return nil, fmt.Errorf("rtp: %d CSRCs exceeds maximum 15", len(h.CSRC))
	}
	if h.Extension && len(h.ExtensionData)%4 != 0 {
		return nil, fmt.Errorf("rtp: extension length %d not a multiple of 4", len(h.ExtensionData))
	}
	buf := make([]byte, h.MarshalSize())
	buf[0] = Version << 6
	if h.Padding {
		buf[0] |= 1 << 5
	}
	if h.Extension {
		buf[0] |= 1 << 4
	}
	buf[0] |= uint8(len(h.CSRC))
	buf[1] = h.PayloadType & 0x7f
	if h.Marker {
		buf[1] |= 1 << 7
	}
	binary.BigEndian.PutUint16(buf[2:], h.SequenceNumber)
	binary.BigEndian.PutUint32(buf[4:], h.Timestamp)
	binary.BigEndian.PutUint32(buf[8:], h.SSRC)
	off := HeaderSize
	for _, c := range h.CSRC {
		binary.BigEndian.PutUint32(buf[off:], c)
		off += 4
	}
	if h.Extension {
		binary.BigEndian.PutUint16(buf[off:], h.ExtensionProfile)
		binary.BigEndian.PutUint16(buf[off+2:], uint16(len(h.ExtensionData)/4))
		copy(buf[off+4:], h.ExtensionData)
	}
	return buf, nil
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
	h.Padding = buf[0]&(1<<5) != 0
	h.Extension = buf[0]&(1<<4) != 0
	cc := int(buf[0] & 0x0f)
	h.Marker = buf[1]&(1<<7) != 0
	h.PayloadType = buf[1] & 0x7f
	h.SequenceNumber = binary.BigEndian.Uint16(buf[2:])
	h.Timestamp = binary.BigEndian.Uint32(buf[4:])
	h.SSRC = binary.BigEndian.Uint32(buf[8:])
	off := HeaderSize
	if len(buf) < off+4*cc {
		return 0, ErrShortPacket
	}
	h.CSRC = nil
	for i := 0; i < cc; i++ {
		h.CSRC = append(h.CSRC, binary.BigEndian.Uint32(buf[off:]))
		off += 4
	}
	if h.Extension {
		if len(buf) < off+4 {
			return 0, ErrShortPacket
		}
		h.ExtensionProfile = binary.BigEndian.Uint16(buf[off:])
		words := int(binary.BigEndian.Uint16(buf[off+2:]))
		off += 4
		if len(buf) < off+4*words {
			return 0, ErrShortPacket
		}
		h.ExtensionData = append([]byte(nil), buf[off:off+4*words]...)
		off += 4 * words
	} else {
		h.ExtensionProfile = 0
		h.ExtensionData = nil
	}
	return off, nil
}

// Packet is an RTP header plus payload.
type Packet struct {
	Header
	Payload []byte
}

// Marshal serializes the packet.
func (p *Packet) Marshal() ([]byte, error) {
	hdr, err := p.Header.Marshal()
	if err != nil {
		return nil, err
	}
	return append(hdr, p.Payload...), nil
}

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
