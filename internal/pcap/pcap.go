// Package pcap writes libpcap-format capture files from emulator traffic,
// standing in for the packet captures the paper collected at each client
// (§2.2). Media packets are serialized as real RTP over UDP/IPv4/Ethernet,
// so the traces open in standard analysis tools.
package pcap

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"time"

	"vcalab/internal/netem"
	"vcalab/internal/rtp"
	"vcalab/internal/vca"
)

// Classic pcap file constants.
const (
	magicNumber  = 0xa1b2c3d4
	versionMajor = 2
	versionMinor = 4
	snapLen      = 65535
	linkEthernet = 1
)

// Writer emits a pcap stream. Create with NewWriter; call WriteNetem (or
// the lower-level WriteFrame) per packet. The first error sticks: every
// later write returns it and writes nothing, so a tap, which cannot
// return an error, loses none — read it with Err once the run is over.
type Writer struct {
	w   io.Writer
	err error
	// Packets counts the records written whole.
	Packets int
}

// NewWriter writes the pcap global header and returns the writer.
func NewWriter(w io.Writer) (*Writer, error) {
	hdr := make([]byte, 24)
	binary.LittleEndian.PutUint32(hdr[0:], magicNumber)
	binary.LittleEndian.PutUint16(hdr[4:], versionMajor)
	binary.LittleEndian.PutUint16(hdr[6:], versionMinor)
	// thiszone, sigfigs = 0
	binary.LittleEndian.PutUint32(hdr[16:], snapLen)
	binary.LittleEndian.PutUint32(hdr[20:], linkEthernet)
	if _, err := w.Write(hdr); err != nil {
		return nil, fmt.Errorf("pcap: writing global header: %w", err)
	}
	return &Writer{w: w}, nil
}

// Err returns the first error any write hit, or nil.
func (w *Writer) Err() error { return w.err }

// WriteFrame writes one raw Ethernet frame with the given virtual
// timestamp.
func (w *Writer) WriteFrame(ts time.Duration, frame []byte) error {
	if w.err != nil {
		return w.err
	}
	rec := make([]byte, 16)
	binary.LittleEndian.PutUint32(rec[0:], uint32(ts/time.Second))
	binary.LittleEndian.PutUint32(rec[4:], uint32(ts%time.Second/time.Microsecond))
	binary.LittleEndian.PutUint32(rec[8:], uint32(len(frame)))
	binary.LittleEndian.PutUint32(rec[12:], uint32(len(frame)))
	if _, err := w.w.Write(rec); err != nil {
		w.err = fmt.Errorf("pcap: writing record header: %w", err)
		return w.err
	}
	if _, err := w.w.Write(frame); err != nil {
		w.err = fmt.Errorf("pcap: writing frame: %w", err)
		return w.err
	}
	w.Packets++
	return nil
}

// WriteNetem serializes a netem packet as Ethernet/IPv4/UDP (with a real
// RTP header when the payload is a vca media packet) and writes it.
func (w *Writer) WriteNetem(ts time.Duration, pkt *netem.Packet) error {
	if w.err != nil {
		return w.err
	}
	frame, err := Frame(pkt)
	if err != nil {
		w.err = err
		return err
	}
	return w.WriteFrame(ts, frame)
}

// HostIP derives a stable synthetic IPv4 address for a host name.
func HostIP(name string) [4]byte {
	h := fnv.New32a()
	h.Write([]byte(name))
	v := h.Sum32()
	return [4]byte{10, byte(v >> 16), byte(v >> 8), byte(v)}
}

// Frame builds the on-wire Ethernet frame for a netem packet. pkt.Size is
// interpreted as the IP datagram size; the UDP payload is reconstructed as
// RTP when possible and zero-filled otherwise.
func Frame(pkt *netem.Packet) ([]byte, error) {
	ipLen := pkt.Size
	if ipLen < 28 {
		ipLen = 28 // minimum IP+UDP
	}
	udpPayload, err := udpPayloadFor(pkt, ipLen-28)
	if err != nil {
		return nil, err
	}
	frame := make([]byte, 14+28+len(udpPayload))

	// Ethernet: synthetic MACs from the IPs, EtherType IPv4.
	srcIP, dstIP := HostIP(pkt.From.Host), HostIP(pkt.To.Host)
	copy(frame[0:6], []byte{0x02, 0, dstIP[1], dstIP[2], dstIP[3], 0x01})
	copy(frame[6:12], []byte{0x02, 0, srcIP[1], srcIP[2], srcIP[3], 0x01})
	binary.BigEndian.PutUint16(frame[12:], 0x0800)

	// IPv4 header.
	ip := frame[14:]
	ip[0] = 0x45 // v4, 20-byte header
	binary.BigEndian.PutUint16(ip[2:], uint16(28+len(udpPayload)))
	ip[8] = 64 // TTL
	ip[9] = 17 // UDP
	copy(ip[12:16], srcIP[:])
	copy(ip[16:20], dstIP[:])
	binary.BigEndian.PutUint16(ip[10:], ipChecksum(ip[:20]))

	// UDP header.
	udp := ip[20:]
	binary.BigEndian.PutUint16(udp[0:], uint16(pkt.From.Port))
	binary.BigEndian.PutUint16(udp[2:], uint16(pkt.To.Port))
	binary.BigEndian.PutUint16(udp[4:], uint16(8+len(udpPayload)))
	// checksum 0 (legal for UDP over IPv4)
	copy(udp[8:], udpPayload)
	return frame, nil
}

// udpPayloadFor reconstructs the UDP payload: a real RTP packet for media,
// zero padding otherwise.
func udpPayloadFor(pkt *netem.Packet, size int) ([]byte, error) {
	if size < 0 {
		size = 0
	}
	mp, ok := pkt.Payload.(*vca.MediaPacket)
	if !ok {
		return make([]byte, size), nil
	}
	payloadLen := size - rtp.HeaderSize
	if payloadLen < 0 {
		payloadLen = 0
	}
	p := rtp.Packet{
		Header: rtp.Header{
			Marker:         mp.FrameEnd,
			PayloadType:    payloadTypeFor(mp),
			SequenceNumber: mp.Seq,
			Timestamp:      uint32(pkt.SentAt / (time.Second / 90000)), // 90 kHz video clock
			SSRC:           uint32(mp.SSRC),
		},
		Payload: make([]byte, payloadLen),
	}
	return p.Marshal()
}

func payloadTypeFor(mp *vca.MediaPacket) uint8 {
	switch {
	case mp.Audio:
		return 111 // opus
	case mp.Padding:
		return 127
	default:
		return 96 // dynamic video
	}
}

func ipChecksum(hdr []byte) uint16 {
	var sum uint32
	for i := 0; i < len(hdr); i += 2 {
		if i == 10 {
			continue // checksum field itself
		}
		sum += uint32(binary.BigEndian.Uint16(hdr[i:]))
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// TapHost records every packet delivered to the host into w. A write
// error stops the capture and waits in w.Err.
func TapHost(w *Writer, h *netem.Host, now func() time.Duration) {
	h.Tap(func(pkt *netem.Packet) { w.WriteNetem(now(), pkt) })
}

// TapLink records every packet offered to a link into w, as TapHost does.
func TapLink(w *Writer, l *netem.Link, now func() time.Duration) {
	l.OnSend(func(pkt *netem.Packet) { w.WriteNetem(now(), pkt) })
}
