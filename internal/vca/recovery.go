package vca

import (
	"sync"
	"time"

	"vcalab/internal/cc"
	"vcalab/internal/media"
	"vcalab/internal/obs"
	"vcalab/internal/rtp"
)

// This file is packet-level loss recovery (DESIGN.md §13), both halves, each
// a part a track is built with or without. The client half is the jitter
// buffer of an inbound track: it reorders out-of-order arrivals, NACKs gaps
// with bounded retries and RTT-derived backoff, adapts its playout deadline
// to observed jitter, and concedes seqs whose deadline or retry budget is
// exhausted — after which late stragglers are dropped, so the media
// receiver sees every loss exactly once. The SFU half is the retransmitter
// a down-track is built with: RTX rings, NACK answering, TWCC send history.
//
// Recovery is strictly opt-in: with CallOptions.Recovery false, none of
// this state exists, no recovery ticker is scheduled, and no message or
// packet differs — experiment output stays byte-identical to a build
// without this file.

// The loss-recovery loop's constants.
const (
	// rtxRingPkts is the per-(leg, origin) retransmission ring capacity
	// at the SFU.
	rtxRingPkts = 512
	// jbWindowPkts is the receiver-side reorder window per origin. A gap
	// wider than this resets the buffer (partition semantics).
	jbWindowPkts = 256
	// maxNackRetries is the per-seq NACK budget before giving up.
	maxNackRetries = 3
	// nackMinBackoff floors the re-NACK backoff; the effective backoff is
	// max(nackMinBackoff, last RTT estimate) — no re-NACK before an
	// answer could possibly have arrived.
	nackMinBackoff = 20 * time.Millisecond
	// nackTick is the recovery ticker cadence (NACK emission, deadline
	// concession).
	nackTick = 20 * time.Millisecond
	// playoutMin/playoutMax clamp the adaptive playout deadline: how long
	// the jitter buffer waits for a missing seq before conceding.
	playoutMin = 60 * time.Millisecond
	playoutMax = 400 * time.Millisecond
	// playoutJitterMult scales the observed jitter EWMA into the playout
	// deadline: deadline = clamp(mult*jitter + RTT, min, max).
	playoutJitterMult float64 = 4
	// twccInterval is the transport-wide CC report cadence.
	twccInterval = 100 * time.Millisecond
)

// jbSlot states.
const (
	jbEmpty uint8 = iota
	jbFilled
	jbConceded
)

type jbSlot struct {
	state     uint8
	seq       uint16
	info      media.PacketInfo
	arrivedAt time.Duration
}

// packetSink is where a jitter buffer delivers what has become in-order:
// the origin's media.Receiver in a call, a recorder in tests.
type packetSink interface {
	OnPacket(now time.Duration, p media.PacketInfo)
}

// jitterBuffer reorders one origin's per-leg sequence space in front of
// its media.Receiver. In-order packets pass straight through; gaps are
// buffered, NACKed, and either healed (RTX or late arrival within the
// playout window) or conceded. Conceded slots swallow late stragglers so
// the receiver's gap accounting — and therefore FreezeTime — charges
// each lost packet exactly once.
type jitterBuffer struct {
	// slots is the reorder window, jbWindowPkts wide. It is
	// allocated by the first out-of-order arrival: a stream that only
	// ever arrives in order never pays for it.
	slots []jbSlot
	q     *rtp.NackQueue

	started bool
	nextSeq uint16 // next seq owed to the receiver
	highest uint16

	// RFC 3550 §A.8 interarrival jitter estimate over transit times.
	jitter      time.Duration
	lastTransit time.Duration
	haveTransit bool

	// Stats (getStats + feedback discounting).
	nackSent     uint64        // NACKs emitted, counted per seq per retry
	rtxRecv      uint64        // retransmissions accepted
	lateDropped  uint64        // post-concession stragglers dropped
	conceded     uint64        // seqs conceded (deadline, give-up, reset)
	jbDelayTotal time.Duration // cumulative buffered-residency time
	// Per-feedback-interval RTX accounting, drained by feedbackTick so
	// CC sees recovered packets as the losses they were.
	intRTXPkts  int
	intRTXBytes int

	nackScratch []uint16 // seqs to NACK, rebuilt each tick
}

func newJitterBuffer() *jitterBuffer {
	return &jitterBuffer{q: rtp.NewNackQueue(maxNackRetries)}
}

func (b *jitterBuffer) slot(seq uint16) *jbSlot {
	if b.slots == nil {
		b.slots = make([]jbSlot, jbWindowPkts)
	}
	return &b.slots[int(seq)%len(b.slots)]
}

// observeJitter folds one arrival's transit time into the jitter EWMA.
func (b *jitterBuffer) observeJitter(now time.Duration, sentAt time.Duration) {
	transit := now - sentAt
	if b.haveTransit {
		d := transit - b.lastTransit
		if d < 0 {
			d = -d
		}
		b.jitter += (d - b.jitter) / 16
	}
	b.lastTransit = transit
	b.haveTransit = true
}

// playoutDelay is the adaptive deadline for a newly detected gap.
func (b *jitterBuffer) playoutDelay(rtt time.Duration) time.Duration {
	return min(max(time.Duration(playoutJitterMult*float64(b.jitter))+rtt, playoutMin), playoutMax)
}

// onPacket feeds one arrival through the buffer, delivering whatever
// becomes in-order to the sink. Returns false when the packet was dropped
// (late straggler past concession). The buffer keeps nothing of mp: an
// in-order arrival's metadata is built once and handed straight on, an
// out-of-order one's is built into its slot.
func (b *jitterBuffer) onPacket(now time.Duration, mp *MediaPacket, wireBytes int,
	sentAt, rtt time.Duration, to packetSink) bool {

	seq := mp.Seq
	b.observeJitter(now, sentAt)
	if mp.RTX {
		b.rtxRecv++
		b.intRTXPkts++
		b.intRTXBytes += wireBytes
	}
	if !b.started {
		b.started = true
		b.nextSeq = seq + 1
		b.highest = seq
		b.q.Observe(seq, now, 0)
		to.OnPacket(now, mp.Info(wireBytes, sentAt))
		return true
	}
	d := rtp.SeqDiff(b.nextSeq, seq)
	switch {
	case d < 0:
		// Before the window: already delivered or conceded. Dropping
		// (rather than delivering) is the freeze-accounting fix — the
		// receiver charged this seq as lost once and must not see it.
		b.lateDropped++
		return false
	case d == 0:
		b.q.Observe(seq, now, 0) // advances the tracker; no gap possible here
		if rtp.SeqLess(b.highest, seq) {
			b.highest = seq
		}
		to.OnPacket(now, mp.Info(wireBytes, sentAt))
		b.nextSeq++
		b.flush(now, to)
		return true
	case d >= jbWindowPkts:
		// Catastrophic gap (partition): stop chasing, deliver what we
		// have in order, concede the rest, restart at seq.
		b.reset(now, to)
		b.q.Reset(seq)
		b.nextSeq = seq + 1
		b.highest = seq
		to.OnPacket(now, mp.Info(wireBytes, sentAt))
		return true
	}
	// Out-of-order within the window: track new gaps, buffer.
	if rtp.SeqLess(b.highest, seq) {
		deadline := now + b.playoutDelay(rtt)
		b.q.Observe(seq, now, deadline)
		b.highest = seq
	} else {
		b.q.Remove(seq)
	}
	s := b.slot(seq)
	if s.state == jbConceded && s.seq == seq {
		// Conceded but nextSeq hasn't passed it yet: a straggler that
		// lost its race with the playout deadline. Same single-count
		// rule as the d < 0 path.
		b.lateDropped++
		return false
	}
	if s.state == jbFilled && s.seq == seq {
		return true // network duplicate of a buffered packet
	}
	s.state, s.seq, s.arrivedAt = jbFilled, seq, now
	s.info = mp.Info(wireBytes, sentAt)
	return true
}

// flush delivers the contiguous run of filled/conceded slots at nextSeq.
func (b *jitterBuffer) flush(now time.Duration, to packetSink) {
	for b.nextSeq != b.highest+1 {
		s := b.slot(b.nextSeq)
		if s.seq != b.nextSeq || s.state == jbEmpty {
			return
		}
		if s.state == jbFilled {
			b.jbDelayTotal += now - s.arrivedAt
			to.OnPacket(now, s.info)
		}
		*s = jbSlot{}
		b.nextSeq++
	}
}

// reset delivers every buffered packet in seq order and concedes the
// holes — the catastrophic-gap path.
func (b *jitterBuffer) reset(now time.Duration, to packetSink) {
	for b.nextSeq != b.highest+1 {
		s := b.slot(b.nextSeq)
		if s.seq == b.nextSeq && s.state == jbFilled {
			b.jbDelayTotal += now - s.arrivedAt
			to.OnPacket(now, s.info)
		} else if s.seq != b.nextSeq || s.state != jbConceded {
			b.conceded++
		}
		if s.seq == b.nextSeq {
			*s = jbSlot{}
		}
		b.nextSeq++
	}
}

// tick runs the NACK retry machine and concedes expired seqs: nack
// fires per seq to request, giveUp per seq whose retry budget ran out,
// and conceded once with the number of seqs given up on this tick.
func (b *jitterBuffer) tick(now, backoff time.Duration, to packetSink,
	nack, giveUp func(seq uint16), conceded func(n int)) {

	if !b.started || b.q.Len() == 0 {
		return
	}
	n := 0
	b.q.Tick(now, backoff,
		func(seq uint16) {
			b.nackSent++
			nack(seq)
		},
		func(seq uint16, gu bool) {
			s := b.slot(seq)
			if s.state == jbEmpty {
				*s = jbSlot{state: jbConceded, seq: seq}
			}
			b.conceded++
			n++
			if gu {
				giveUp(seq)
			}
		})
	if n > 0 {
		b.flush(now, to)
		conceded(n)
	}
}

// takeInterval drains the per-feedback-interval RTX counters (none on a
// nil buffer).
func (b *jitterBuffer) takeInterval() (pkts, bytes int) {
	if b == nil {
		return 0, 0
	}
	pkts, bytes = b.intRTXPkts, b.intRTXBytes
	b.intRTXPkts, b.intRTXBytes = 0, 0
	return pkts, bytes
}

// inbound is a client's receive track for one origin, an entry of
// Client.recv: the media.Receiver and, when built with one, the jitter
// buffer in front of it — the client half of loss recovery. The zero value
// is an origin not heard from yet. Client.track builds it with a buffer for a
// participant origin in a recovery-on call and without one otherwise (an
// SFU's probe padding, every origin of a recovery-off call); a track built
// without holds a nil *jitterBuffer, through which onPacket hands every
// arrival straight to the receiver and whose counters read zero. The
// client calls the track unconditionally and asks nothing else about
// recovery.
type inbound struct {
	recv *media.Receiver
	jb   *jitterBuffer
}

// onPacket feeds one arrival to the track: through the buffer, which decides
// what (and when) the receiver sees, or straight to the receiver. False
// means the buffer dropped it (a straggler past its concession).
func (t *inbound) onPacket(now time.Duration, mp *MediaPacket, wireBytes int, sentAt, rtt time.Duration) bool {
	if t.jb == nil {
		t.recv.OnPacket(now, mp.Info(wireBytes, sentAt))
		return true
	}
	return t.jb.onPacket(now, mp, wireBytes, sentAt, rtt, t.recv)
}

// flush concedes every pending gap of a buffered track and delivers the
// stragglers — called at stop so drained runs end with empty NACK queues
// and fully delivered buffers, and a rejoin inherits no stale seq state.
// The buffer is ticked far in the future to expire every deadline, but
// what that releases reaches the receiver now: fed an hour ahead, it would
// book the hour as a freeze.
func (t *inbound) flush(now time.Duration) {
	b, to := t.jb, sinkAt{t.recv, now}
	b.tick(now+playoutMax+time.Hour, time.Hour, to,
		func(uint16) {}, func(uint16) {}, func(int) {})
	b.reset(now, to)
}

// sinkAt delivers at a fixed time whatever time the buffer is run at.
type sinkAt struct {
	to  packetSink
	now time.Duration
}

func (s sinkAt) OnPacket(_ time.Duration, p media.PacketInfo) { s.to.OnPacket(s.now, p) }

// retransmitter is the SFU half of loss recovery: the part a down-track
// toward a local receiver is built with in a recovery-on call, and never
// otherwise. Relay tracks get none — recovery is last-mile, the downstream
// SFU re-buffers in its own rewritten sequence space. It remembers every
// packet the track emitted, per origin, so the subscriber's NACKs can be
// answered, and — where the track has a controller — stamps and records
// every packet for the subscriber's TWCC reports. A track built without
// one holds a nil *retransmitter, on which store, storeOwn, stamp and drop
// do nothing: the packet path calls them unconditionally and asks nothing
// else about recovery.
type retransmitter struct {
	// byOrigin is dense by origin ID. A ring is taken from ringStash by the
	// pair's first emission and goes back there, drained, when the origin
	// is dropped; the counters outlive it.
	byOrigin []rtxOrigin
	// refsLive is the number of ring slots currently holding a packet
	// (harness invariant: zero after DrainRecovery).
	refsLive uint64

	// twSeq is the transport-wide sequence counter of this downlink: every
	// packet of the track (media, FEC, probe padding, RTX) gets the next
	// value, feeding the receiver's TWCC arrival reports. It skips 0, so
	// TWSeq == 0 always means "unstamped". twHist maps a TWSeq back to its
	// send time and size when the report returns (nil: no controller to
	// feed, nothing is stamped); twccFilter turns report + history into
	// cc.Feedback.
	twSeq      uint16
	twHist     *rtp.SentHistory
	twccFilter cc.TWCCFilter
}

// rtxCount is one origin's sender-side recovery counters (getStats).
type rtxCount struct {
	nacks uint64 // NACKed seqs received
	rtx   uint64 // retransmissions answered
}

func (c *rtxCount) add(o rtxCount) { c.nacks += o.nacks; c.rtx += o.rtx }

type rtxOrigin struct {
	ring *rtp.RTXRing[rtxEntry]
	rtxCount
}

// rtxEntry is one ring slot: the packet this down-track shares with every
// other ring its ingress packet fanned out to, the rewritten seq the slot
// is filed under, and the wire size and header fields this down-track
// rewrote on the copy it sent. The slot is one of pkt's holders
// (MediaPacket.retain) until it is evicted or drained. An FEC slot holds
// no packet (see storeOwn).
type rtxEntry struct {
	pkt *MediaPacket
	// frameSeq is MediaPacket.FrameSeq's width, which keeps the entry, and
	// so the ring slot, at 16 bytes; at 30 fps it wraps after two years of
	// simulated call.
	frameSeq  int32
	seq       uint16
	sizeFlags uint16 // the wire size (rtxSizeMask), then rtxKeyframe | rtxFrameEnd | rtxE2E | rtxFEC
}

// rtxEntry.sizeFlags: the wire size in the low 12 bits, the flags above.
const (
	rtxSizeMask uint16 = 1<<12 - 1
	rtxKeyframe uint16 = 1 << 12
	rtxFrameEnd uint16 = 1 << 13
	rtxE2E      uint16 = 1 << 14
	rtxFEC      uint16 = 1 << 15
)

// The largest packet a down-track sends must fit rtxEntry's size bits.
const _ uint16 = rtxSizeMask - (maxPayload + wireOverhead)

// RTXSeq is the ring's key: the seq the entry is filed under, and whether
// the slot is taken (a media slot holds its packet, an FEC slot its flag).
func (e rtxEntry) RTXSeq() (uint16, bool) { return e.seq, e.pkt != nil || e.sizeFlags&rtxFEC != 0 }

func (e rtxEntry) size() int { return int(e.sizeFlags & rtxSizeMask) }

// flag returns bit if on, else 0.
func flag(on bool, bit uint16) uint16 {
	if on {
		return bit
	}
	return 0
}

// rebuild returns a fresh pooled copy of the packet exactly as this
// down-track first sent it, origin's packet under e.seq: the shared packet
// with the slot's fields written over it, or for an FEC slot a new FEC
// packet, whose every field emit set from its origin and seq.
func (e rtxEntry) rebuild(p *mpPool, origin int32) *MediaPacket {
	var out *MediaPacket
	if e.sizeFlags&rtxFEC != 0 {
		out = p.get()
		out.OriginID, out.RK, out.Padding = origin, rkFEC, true
	} else {
		out = p.copyOf(e.pkt)
	}
	out.Seq, out.FrameSeq = e.seq, e.frameSeq
	out.Keyframe, out.FrameEnd, out.E2E = e.sizeFlags&rtxKeyframe != 0, e.sizeFlags&rtxFrameEnd != 0, e.sizeFlags&rtxE2E != 0
	return out
}

// Recovery state outlives the track and the call that made it (DESIGN.md
// §13). A dropped origin's drained ring, a retired track's cleared send
// history and, at Call.Release, a dead call's rings, histories and region
// pools wait here for the next track or call in the process: churn and
// back-to-back trials take the one path. A drained ring and a cleared
// history are byte-for-byte new ones, and a released pool's free packets
// and messages are zeroed with nothing counted out, so where a call's
// state came from never shows in what it sends.
var (
	ringStash = sync.Pool{New: func() any { return rtp.NewRTXRing[rtxEntry](rtxRingPkts) }}
	histStash = sync.Pool{New: func() any { return rtp.NewSentHistory(2048) }}
	poolStash = sync.Pool{New: func() any { return &mpPool{} }}
)

func newRetransmitter(idCap int, twcc bool) *retransmitter {
	r := &retransmitter{byOrigin: make([]rtxOrigin, idCap)}
	if twcc {
		r.twHist = histStash.Get().(*rtp.SentHistory)
	}
	return r
}

// store files an outgoing packet in its origin's ring so a NACK for its
// seq can be answered: the slot retains shared — the ingress packet out
// was copied from — and records what out rewrote.
func (r *retransmitter) store(shared, out *MediaPacket, size int) {
	if r != nil {
		r.put(out.OriginID, rtxEntry{
			pkt:       shared.retain(),
			frameSeq:  out.FrameSeq,
			seq:       out.Seq,
			sizeFlags: uint16(size) | flag(out.Keyframe, rtxKeyframe) | flag(out.FrameEnd, rtxFrameEnd) | flag(out.E2E, rtxE2E),
		})
	}
}

// storeOwn files a server-generated FEC packet. No ingress packet stands
// behind it, and its origin, seq and size are all there is to it, so the
// slot holds no packet: rebuild makes a new one from those.
func (r *retransmitter) storeOwn(fec *MediaPacket, size int) {
	if r != nil {
		r.put(fec.OriginID, rtxEntry{seq: fec.Seq, sizeFlags: uint16(size) | rtxFEC})
	}
}

// put files e in origin's ring; the slot it evicts lets go of its packet.
// An origin's first packet takes a ring from the stash.
func (r *retransmitter) put(origin int32, e rtxEntry) {
	o := &r.byOrigin[origin]
	if o.ring == nil {
		o.ring = ringStash.Get().(*rtp.RTXRing[rtxEntry])
	}
	if ev, _ := o.ring.Put(e); ev.pkt != nil {
		unref(ev.pkt)
		r.refsLive--
	}
	if e.pkt != nil {
		r.refsLive++
	}
}

// stamp gives an outgoing packet the downlink's next transport-wide seq.
func (r *retransmitter) stamp(now time.Duration, mp *MediaPacket, size int) {
	if r == nil || r.twHist == nil {
		return
	}
	r.twSeq++
	if r.twSeq == 0 {
		r.twSeq++
	}
	mp.TWSeq = r.twSeq
	r.twHist.Record(r.twSeq, int64(now/time.Microsecond), size)
}

// drop lets go of every packet one origin's ring holds and stashes the
// emptied ring. Every path that makes a down-track forget an origin must
// come through here (or drain), or retained packets never return to the
// pool.
func (r *retransmitter) drop(origin int32) {
	if r == nil {
		return
	}
	o := &r.byOrigin[origin]
	if o.ring == nil {
		return
	}
	o.ring.Drain(func(e rtxEntry) {
		if e.pkt != nil {
			unref(e.pkt)
			r.refsLive--
		}
	})
	ringStash.Put(o.ring)
	o.ring = nil
}

// drain empties every ring (Call.DrainRecovery).
func (r *retransmitter) drain() {
	for id := range r.byOrigin {
		r.drop(int32(id))
	}
}

// retire is the track's teardown: the counters folded into the server's
// per-origin tally of departed tracks, then the track released.
func (r *retransmitter) retire(into []rtxCount) {
	for id := range r.byOrigin {
		into[id].add(r.byOrigin[id].rtxCount)
	}
	r.release()
}

// release ends the track (retire, Call.Release): its rings drained and
// stashed, its send history cleared and stashed.
func (r *retransmitter) release() {
	r.drain()
	if r.twHist != nil {
		r.twHist.Reset()
		histStash.Put(r.twHist)
		r.twHist = nil
	}
}

// answer re-sends what a subscriber's NACK asks for from the origin's
// ring. Every answered seq goes through the normal track path — shaped,
// droppable, TWCC-stamped — as a fresh pooled copy rebuilt from the slot
// and marked RTX; the slot stays put so a re-NACK can be answered again.
// Seqs already evicted are silently unanswerable: the receiver's retry
// budget bounds how long it keeps asking. It only reads m.
func (l *downTrack) answer(now time.Duration, m *NackMsg) (answered int) {
	if l.rtx == nil || m.Origin < 0 || int(m.Origin) >= len(l.rtx.byOrigin) {
		return 0
	}
	o := &l.rtx.byOrigin[m.Origin]
	if o.ring == nil {
		return 0
	}
	requested := 0
	for _, p := range m.Pairs {
		seq := p.PacketID
		for i := 0; i <= 16; i++ {
			if i > 0 {
				if p.Bitmask&(1<<(i-1)) == 0 {
					continue
				}
				seq = p.PacketID + uint16(i)
			}
			requested++
			if e, ok := o.ring.Get(seq); ok {
				out := e.rebuild(l.pool, m.Origin)
				out.RTX = true
				l.send(now, out, e.size())
				answered++
			}
		}
	}
	o.nacks += uint64(requested)
	o.rtx += uint64(answered)
	return answered
}

// onTWCC folds a subscriber's transport-wide arrival report into the
// track's controller. The filter reconstructs per-packet one-way delay
// against the send history; RTT follows the repo's synthetic convention
// (2×queue delay + 40 ms base). It only reads m.
func (l *downTrack) onTWCC(now time.Duration, m *TWCCMsg, tr *obs.Tracer, server string) {
	if l.rtx == nil || l.rtx.twHist == nil {
		return
	}
	fb, ok := l.rtx.twccFilter.Process(now, 0, &m.Report, l.rtx.twHist.Lookup)
	if !ok {
		return
	}
	fb.RTT = 2*fb.QueueDelay + 40*time.Millisecond
	feedCC(l.ctrl, fb, tr, l.recvName, server)
}

// RecoveryReceiverStats is one origin's receiver-side recovery counters,
// surfaced into inbound-rtp getStats.
type RecoveryReceiverStats struct {
	NackCount        uint64
	RTXReceived      uint64
	JitterBufferTime time.Duration
	Conceded         uint64
	LateDropped      uint64
}

// stats reads the buffer's counters (the zero value on a nil buffer).
func (b *jitterBuffer) stats() RecoveryReceiverStats {
	if b == nil {
		return RecoveryReceiverStats{}
	}
	return RecoveryReceiverStats{
		NackCount:        b.nackSent,
		RTXReceived:      b.rtxRecv,
		JitterBufferTime: b.jbDelayTotal,
		Conceded:         b.conceded,
		LateDropped:      b.lateDropped,
	}
}
