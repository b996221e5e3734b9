// Package vca models the three video conferencing applications the paper
// measures — Zoom, Google Meet and Microsoft Teams — as mechanism-faithful
// compositions of the substrates: per-VCA congestion control (internal/cc),
// per-VCA encoding strategy (internal/codec: simulcast for Meet, SVC for
// Zoom, single stream for Teams), per-VCA relay-server behaviour (this
// package's Server), and receiver-side media handling (internal/media).
//
// The package deliberately implements the mechanisms the paper identifies
// rather than curve-fitting its figures; the published shapes re-emerge
// from the mechanism interplay (see DESIGN.md §4).
package vca

import (
	"fmt"
	"math"
	"slices"
	"time"

	"vcalab/internal/cc"
	"vcalab/internal/codec"
	"vcalab/internal/media"
	"vcalab/internal/netem"
	"vcalab/internal/rtp"
)

// Well-known ports used on every host.
const (
	PortMedia    = 5004 // RTP media
	PortFeedback = 5005 // RTCP receiver feedback
	PortSignal   = 5006 // FIR and SFU allocation signalling
)

// Wire overhead per packet: 12 B RTP + 8 B UDP + 20 B IP.
const wireOverhead = 40

// maxPayload is the media packetization MTU budget.
const maxPayload = 1200

// Rate keys give every stream of one origin a dense index, so the packet
// path hashes no stream name: rate estimators and flow-label caches are
// slices indexed by rate key. SVC
// layers extend past rkSVC (layer L maps to rkSVC+L), so rkSVC must stay
// the last constant.
const (
	rkVideo uint8 = iota
	rkSimLow
	rkSimHigh
	rkAudio
	rkPad
	rkFEC
	rkSVC // layer 0; layer L -> rkSVC+L
)

// streamNames names each rate key's codec stream ID. Only the two labels
// read a name back (streamName), so a packet carries just the rate key.
var streamNames = [rkSVC + 1]string{
	rkVideo: "video", rkSimLow: "sim/low", rkSimHigh: "sim/high",
	rkAudio: "audio", rkPad: "pad", rkFEC: "fec", rkSVC: "svc",
}

// streamRK maps a codec stream ID to its rate key, stamped once at packet
// creation so no forwarding hop re-derives it. An unknown ID is video.
func streamRK(stream string) uint8 {
	if i := slices.Index(streamNames[:], stream); i >= 0 {
		return uint8(i)
	}
	return rkVideo
}

// streamName is streamRK's inverse for a packet's stamped rate key.
func streamName(rk uint8) string { return streamNames[rk] }

// rateKey expands a packet's stamped rate key with its SVC layer.
func (m *MediaPacket) rateKey() int {
	k := int(m.RK)
	if m.RK == rkSVC {
		k += int(m.Layer)
	}
	return k
}

// MediaPacket is the typed payload of an RTP media packet in the emulator.
// internal/pcap can serialize it to a real RTP packet for traces.
//
// Fields are ordered by alignment so the struct fits the 64-byte size
// class: every pool fill, recovery on or off, pays for one of these, and
// every RTX ring slot holds one alive.
type MediaPacket struct {
	// OriginSentAt is stamped by the origin client and survives
	// forwarding.
	OriginSentAt time.Duration
	// fps, qp, width and height are the encode parameters a frame's last
	// packet of each layer carries (hasParams); params reads them back.
	fps, qp float64

	pool *mpPool // owning free list, nil for literal packets

	// OriginID is the dense call-wide registry ID of the participant
	// whose media this is, stamped at the origin client (or at the SFU for
	// server-generated padding/FEC) and preserved across every forwarding
	// hop. An ID never changes owner, so the registry names the origin
	// wherever a name is needed (labels, traces).
	OriginID int32
	// refs counts the holders of a retained packet (see retain).
	refs          int32
	FrameSeq      int32
	width, height uint16
	Seq           uint16
	// TWSeq is the transport-wide sequence number the SFU stamps on every
	// packet of one downlink when recovery is on (0 = unstamped; the
	// counter skips 0), feeding the TWCC arrival reports.
	TWSeq uint16
	SSRC  uint8 // 1 video and client padding, 2 audio, 0 SFU-made FEC and padding
	// RK is the stream's rate key (see streamRK), stamped alongside
	// OriginID; it names the stream ("video", "sim/low", "sim/high",
	// "svc", "audio", "pad", "fec") through streamName.
	RK    uint8
	Layer uint8 // SVC layer

	// LayerEnd marks the last packet of this frame's layer; FrameEnd
	// marks the last packet of the whole frame (top selected layer).
	// The SFU rewrites FrameEnd when it strips SVC layers.
	LayerEnd bool
	FrameEnd bool
	Keyframe bool
	Audio    bool
	Padding  bool // FEC / probe padding
	// E2E is set by a pass-through relay (Teams 2-party) to tell the
	// receiver its delay signal should span the whole path.
	E2E bool
	// RTX marks a NACK-answered retransmission, so the receiver can
	// account it separately and CC can discount it.
	RTX       bool
	hasParams bool
}

// setParams stamps the encode parameters on the packet. A dimension
// outside 16 bits is a ladder no packet can carry, and panics.
func (m *MediaPacket) setParams(p codec.EncodeParams) {
	if uint(p.Width) > math.MaxUint16 || uint(p.Height) > math.MaxUint16 {
		panic(fmt.Sprintf("vca: a %dx%d frame does not fit a media packet's 16-bit dimensions", p.Width, p.Height))
	}
	m.fps, m.qp, m.width, m.height, m.hasParams = p.FPS, p.QP, uint16(p.Width), uint16(p.Height), true
}

// params returns the encode parameters setParams stamped, FPS and QP bit
// for bit, and whether there are any.
func (m *MediaPacket) params() (codec.EncodeParams, bool) {
	return codec.EncodeParams{FPS: m.fps, Width: int(m.width), Height: int(m.height), QP: m.qp}, m.hasParams
}

// mpPool is the single-threaded free list of one region's payload
// objects, shared by its SFU and every client homed on it: MediaPacket
// structs (one per RTP packet at the origin plus one per forwarded copy at
// each SFU) and the control messages — receiver reports, and with recovery
// on NACKs and TWCC reports. Pooling makes all of that allocation-free.
// Each payload has exactly one consumer (its netem delivery), which
// releases it; the one exception is a media packet the SFU retains for
// retransmission, which goes back when its last holder lets go (retain).
type mpPool struct {
	free []*MediaPacket
	// made counts media packets ever allocated for this pool, so
	// made - len(free) is the number out of it without a per-packet
	// counter on the hottest path. A drained call must read zero.
	made int
	fb   []*FeedbackMsg
	nack []*NackMsg
	twcc []*TWCCMsg
	// ctrlLive counts control messages handed out and not yet released.
	// A drained call must read zero (scenario harness invariant).
	ctrlLive int
}

func (p *mpPool) get() *MediaPacket {
	if n := len(p.free) - 1; n >= 0 {
		mp := p.free[n]
		p.free = p.free[:n]
		return mp
	}
	p.made++
	return &MediaPacket{pool: p}
}

// mediaLive is the number of media packets handed out and not yet back.
func (p *mpPool) mediaLive() int { return p.made - len(p.free) }

func (p *mpPool) put(mp *MediaPacket) {
	*mp = MediaPacket{pool: p}
	p.free = append(p.free, mp)
}

// copyOf returns a pooled copy of mp (the SFU's per-receiver rewrite).
// The copy has one owner whatever mp's holders are.
func (p *mpPool) copyOf(mp *MediaPacket) *MediaPacket {
	out := p.get()
	*out = *mp
	out.pool, out.refs = p, 0
	return out
}

// pop takes the most recently freed message off a free list, or returns
// nil when the list is empty.
func pop[T any](free *[]*T) *T {
	n := len(*free) - 1
	if n < 0 {
		return nil
	}
	m := (*free)[n]
	*free = (*free)[:n]
	return m
}

// getFeedback hands out a receiver report from the sender with ID fromID.
func (p *mpPool) getFeedback(fromID int32, st media.IntervalStats) *FeedbackMsg {
	p.ctrlLive++
	m := pop(&p.fb)
	if m == nil {
		m = &FeedbackMsg{pool: p}
	}
	m.FromID, m.Stats = fromID, st
	return m
}

// getNack hands out a NACK whose Pairs is empty but keeps its capacity.
func (p *mpPool) getNack() *NackMsg {
	p.ctrlLive++
	if m := pop(&p.nack); m != nil {
		return m
	}
	return &NackMsg{pool: p}
}

// getTWCC hands out a TWCC report whose DeltaUs is empty but keeps its
// capacity.
func (p *mpPool) getTWCC() *TWCCMsg {
	p.ctrlLive++
	if m := pop(&p.twcc); m != nil {
		return m
	}
	return &TWCCMsg{pool: p}
}

// copyCtrl returns a copy of a control message drawn from p, slices
// included, or nil when m is not one (the shard-boundary transfer).
func (p *mpPool) copyCtrl(m any) any {
	switch m := m.(type) {
	case *FeedbackMsg:
		return p.getFeedback(m.FromID, m.Stats)
	case *NackMsg:
		out := p.getNack()
		out.FromID, out.Origin = m.FromID, m.Origin
		out.Pairs = append(out.Pairs, m.Pairs...)
		return out
	case *TWCCMsg:
		out := p.getTWCC()
		deltas := append(out.Report.DeltaUs, m.Report.DeltaUs...)
		out.FromID, out.Report = m.FromID, m.Report
		out.Report.DeltaUs = deltas
		return out
	}
	return nil
}

// releaseMedia recycles a pooled media packet at its consumption point;
// it is a no-op for literal packets (tests, external builders). The
// packet must have exactly one owner: holders of a retained packet let go
// through unref.
func releaseMedia(mp *MediaPacket) {
	if mp.pool != nil {
		mp.pool.put(mp)
	}
}

// retain adds a holder to a packet that will outlive its one consumer:
// the SFU holds an ingress packet while it fans out, and every RTX ring
// slot that points at the packet holds it until the slot is evicted or
// drained. Each retain is paid back by exactly one unref.
func (m *MediaPacket) retain() *MediaPacket {
	m.refs++
	return m
}

// unref drops one holder; the last one out recycles the packet.
func unref(mp *MediaPacket) {
	if mp.refs--; mp.refs == 0 {
		releaseMedia(mp)
	}
}

// ReleasePayload implements netem.PayloadReleaser: when the emulator
// drops the carrying packet before delivery (queue overflow, random
// loss, unrouteable), the media packet goes back to the pool instead of
// leaking to the garbage collector — keeping loss-heavy sweeps
// allocation-free.
func (m *MediaPacket) ReleasePayload() { releaseMedia(m) }

// Info converts the packet to the receiver-side metadata structure.
// Audio shares the padding path in media.Receiver: it counts toward rate
// and loss but not toward video frame assembly.
func (m *MediaPacket) Info(wireBytes int, sentAt time.Duration) media.PacketInfo {
	params, has := m.params()
	return media.PacketInfo{
		Seq:       m.Seq,
		FrameSeq:  int(m.FrameSeq),
		FrameEnd:  m.FrameEnd,
		Keyframe:  m.Keyframe,
		Bytes:     wireBytes,
		SentAt:    sentAt,
		Padding:   m.Padding || m.Audio,
		Params:    params,
		HasParams: has,
	}
}

// FeedbackMsg is the periodic receiver report (100 ms cadence), carrying
// the aggregate interval statistics the congestion controllers consume.
//
// Control messages (FeedbackMsg, NackMsg, TWCCMsg) come from the region's
// pool and follow the media-packet ownership rule: the port handler they
// are delivered to is their one consumer and releases them on every
// return path; a packet netem drops releases its payload itself.
type FeedbackMsg struct {
	FromID int32 // reporting client's (or downstream SFU's) registry ID — the SFU's leg lookup key
	Stats  media.IntervalStats

	pool *mpPool // owning free list, nil for literal messages
}

// ReleasePayload implements netem.PayloadReleaser and is the consumer's
// release call; a no-op for literal messages.
func (m *FeedbackMsg) ReleasePayload() {
	if p := m.pool; p != nil {
		*m = FeedbackMsg{pool: p}
		p.fb = append(p.fb, m)
		p.ctrlLive--
	}
}

// FIRMsg requests a keyframe for Origin's stream (RTCP FIR, RFC 5104).
type FIRMsg struct {
	Origin string
}

// AllocMsg is the Meet SFU's signal to a sender adjusting its low simulcast
// copy under receiver starvation (§3.1: Meet's downlink floor behaviour).
type AllocMsg struct {
	LowBps float64
}

// NackMsg asks the SFU to retransmit missing packets of one origin's
// per-leg sequence space (RTCP generic NACK). Pairs' backing
// array is recycled with the message.
type NackMsg struct {
	FromID int32 // receiver's registry ID — the SFU's leg lookup key
	Origin int32 // origin whose (leg, origin) seq space Pairs index
	Pairs  []rtp.NackPair

	pool *mpPool
}

// ReleasePayload implements netem.PayloadReleaser (see FeedbackMsg).
func (m *NackMsg) ReleasePayload() {
	if p := m.pool; p != nil {
		*m = NackMsg{Pairs: m.Pairs[:0], pool: p}
		p.nack = append(p.nack, m)
		p.ctrlLive--
	}
}

// TWCCMsg carries one transport-wide CC arrival report from a receiver
// to its SFU (rtp.TransportCC over the per-leg TWSeq space).
// Report.DeltaUs' backing array is recycled with the message.
type TWCCMsg struct {
	FromID int32
	Report rtp.TransportCC

	pool *mpPool
}

// ReleasePayload implements netem.PayloadReleaser (see FeedbackMsg).
func (m *TWCCMsg) ReleasePayload() {
	if p := m.pool; p != nil {
		*m = TWCCMsg{Report: rtp.TransportCC{DeltaUs: m.Report.DeltaUs[:0]}, pool: p}
		p.twcc = append(p.twcc, m)
		p.ctrlLive--
	}
}

const (
	feedbackWire = 90
	firWire      = 60
	allocWire    = 60
	nackWireBase = 16 // RTCP NACK header; + 4 per pair
	twccWireBase = 24 // simplified TWCC header; + 4 per delta
)

// padBudget turns a controller's padding rate into whole probe packets.
type padBudget struct {
	owed float64
	last time.Duration
}

// due returns how many maxPayload packets the rate has accrued since the
// last call (one padInterval on the first).
func (b *padBudget) due(now time.Duration, ctrl cc.Controller) int {
	dt := (now - b.last).Seconds()
	if b.last == 0 {
		dt = padInterval.Seconds()
	}
	b.last = now
	b.owed += ctrl.PadRateBps(now) / 8 * dt
	n := 0
	for ; b.owed >= maxPayload; n++ {
		b.owed -= maxPayload
	}
	return n
}

// post sends one payload from the host's port to the same port on another
// host — every packet a client or an SFU emits goes through here.
func post(h *netem.Host, to string, port, size int, flow string, payload any) {
	pkt := h.NewPacket()
	pkt.Size = size
	pkt.From = netem.Addr{Host: h.Name, Port: port}
	pkt.To = netem.Addr{Host: to, Port: port}
	pkt.Flow = flow
	pkt.Payload = payload
	h.Send(pkt)
}
