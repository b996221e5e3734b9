// Package media implements the receiver side of a video stream: loss and
// delay accounting for congestion feedback, frame reassembly, a decoder
// reference-chain model, the paper's freeze detector, and Full Intra
// Request triggering.
//
// The freeze definition is taken verbatim from §3.2: a freeze occurs when a
// frame inter-arrival gap exceeds max(3δ, δ+150ms), with δ the average
// frame duration. FIR behaviour models §3.2's observation that receivers
// request intra frames when they cannot decode (Fig 3b uses the FIR count
// as the uplink-direction freeze proxy).
package media

import (
	"time"

	"vcalab/internal/codec"
)

// PacketInfo is the per-packet metadata the receiver consumes. It mirrors
// what a real receiver reads from RTP headers plus the sender timestamp
// (available via the abs-send-time extension in WebRTC).
type PacketInfo struct {
	Seq      uint16 // RTP sequence number
	FrameSeq int    // which frame this packet belongs to
	FrameEnd bool   // RTP marker bit: last packet of the frame
	Keyframe bool
	Bytes    int
	SentAt   time.Duration
	// Padding marks FEC/probe packets: they count toward received rate
	// (and loss) but carry no frame data.
	Padding bool
	// Params carries encode parameters on FrameEnd packets, feeding the
	// WebRTC-stats emulation.
	Params    codec.EncodeParams
	HasParams bool
}

// IntervalStats summarizes reception since the previous Take call; it is
// the raw material for cc.Feedback.
type IntervalStats struct {
	Interval     time.Duration
	Expected     int
	Received     int
	LossFraction float64
	RateBps      float64
	QueueDelay   time.Duration
}

// The FIR policy: decode must be stalled firDamageThreshold before a
// receiver requests a keyframe, and it requests at most one per
// firCooldown.
const (
	firDamageThreshold = 200 * time.Millisecond
	firCooldown        = 500 * time.Millisecond
)

// Receiver tracks one incoming media stream.
type Receiver struct {
	// OnFIR, when set, is invoked when the receiver wants a keyframe.
	OnFIR func(now time.Duration)

	// --- interval (feedback) accounting ---
	intervalStart time.Duration
	expected      int
	received      int
	bytes         int
	// One-way-delay base: the minimum OWD over a ~10 s sliding window
	// (bucketed per second). A windowed base absorbs constant
	// components — per-packet serialization on slow links, route
	// changes — the way GCC's gradient filter does, leaving only
	// genuine queue growth in the signal.
	owdBuckets [10]time.Duration
	bucketIdx  int
	bucketT    time.Duration
	owdEWMA    float64 // seconds above the windowed base
	haveBase   bool
	lastSeq    uint16
	haveSeq    bool
	pendingGap int // missing packets not yet healed by late arrivals

	// --- frame assembly ---
	curFrame     int
	curDamaged   bool
	curKey       bool
	curHasEnd    bool
	lastDecoded  int
	chainBroken  bool
	stalledSince time.Duration
	stalled      bool
	lastFIR      time.Duration

	// --- freeze detection (paper formula) ---
	lastDisplay  time.Duration
	haveDisplay  bool
	avgFrameDur  float64 // seconds, EWMA
	freezeTime   time.Duration
	freezeCount  int
	displayCount int

	// --- cumulative ---
	FIRCount    int
	TotalBytes  int64
	LastParams  codec.EncodeParams
	firstPacket time.Duration
	lastPacket  time.Duration
	havePacket  bool
}

// NewReceiver creates a receiver.
func NewReceiver() *Receiver {
	return &Receiver{lastDecoded: -1, curFrame: -1}
}

// OnPacket processes one arriving packet at virtual time now.
func (r *Receiver) OnPacket(now time.Duration, p PacketInfo) {
	if !r.havePacket {
		r.firstPacket = now
		r.havePacket = true
	}
	r.lastPacket = now

	// Loss accounting via sequence gaps, tolerant of reordering: a late
	// packet must not move the high-water mark backwards, and it heals
	// one outstanding gap (the jitter-buffer behaviour of a real
	// receiver, needed for the §8 jitter impairments).
	if r.haveSeq {
		// Signed wraparound distance: late packets give negative gaps.
		gap := int(int16(p.Seq - r.lastSeq))
		switch {
		case gap > 0:
			r.expected += gap
			if gap > 1 {
				r.pendingGap += gap - 1
				// Packets in (lastSeq, Seq) are missing; if any belonged
				// to the current frame it is damaged (until healed by a
				// late arrival).
				r.curDamaged = true
			}
			r.lastSeq = p.Seq
		default:
			// Late or duplicate packet: fills a hole.
			if r.pendingGap > 0 {
				r.pendingGap--
				if r.pendingGap == 0 {
					r.curDamaged = false
				}
			}
		}
	} else {
		r.expected++
		r.haveSeq = true
		r.lastSeq = p.Seq
	}
	r.received++
	r.bytes += p.Bytes
	r.TotalBytes += int64(p.Bytes)

	// One-way delay tracking against a sliding-window base.
	owd := now - p.SentAt
	if !r.haveBase {
		for i := range r.owdBuckets {
			r.owdBuckets[i] = owd
		}
		r.bucketT = now
		r.haveBase = true
	}
	if now-r.bucketT >= time.Second {
		r.bucketIdx = (r.bucketIdx + 1) % len(r.owdBuckets)
		r.owdBuckets[r.bucketIdx] = owd
		r.bucketT = now
	}
	if owd < r.owdBuckets[r.bucketIdx] {
		r.owdBuckets[r.bucketIdx] = owd
	}
	base := r.owdBuckets[0]
	for _, b := range r.owdBuckets[1:] {
		if b < base {
			base = b
		}
	}
	qd := (owd - base).Seconds()
	r.owdEWMA = 0.9*r.owdEWMA + 0.1*qd

	if p.Padding {
		r.checkStall(now)
		return
	}

	// Frame assembly.
	if p.FrameSeq != r.curFrame {
		// A new frame begins; finalize the previous one if it never
		// completed (tail packet lost).
		if r.curFrame >= 0 && !r.curHasEnd {
			r.frameDone(now, r.curFrame, true, r.curKey)
		}
		if r.curFrame >= 0 && p.FrameSeq > r.curFrame+1 {
			// Entire frames vanished.
			r.chainBroken = true
		}
		r.curFrame = p.FrameSeq
		r.curDamaged = false
		r.pendingGap = 0
		r.curKey = p.Keyframe
		r.curHasEnd = false
	}
	if p.Keyframe {
		r.curKey = true
	}
	if p.HasParams {
		r.LastParams = p.Params
	}
	if p.FrameEnd {
		r.curHasEnd = true
		r.frameDone(now, p.FrameSeq, r.curDamaged, r.curKey)
		r.curFrame = p.FrameSeq // stay until a new frame starts
	}
	r.checkStall(now)
}

// frameDone handles a completed (or abandoned) frame.
func (r *Receiver) frameDone(now time.Duration, frameSeq int, damaged, key bool) {
	decodable := !damaged && (key || (!r.chainBroken && frameSeq == r.lastDecoded+1) || r.lastDecoded == -1)
	if key && !damaged {
		// A clean keyframe always resets the reference chain.
		r.chainBroken = false
		decodable = true
	}
	if !decodable {
		r.chainBroken = true
		if !r.stalled {
			r.stalled = true
			r.stalledSince = now
		}
		return
	}
	r.lastDecoded = frameSeq
	r.stalled = false
	r.display(now)
}

// display feeds the freeze detector with a rendered frame.
func (r *Receiver) display(now time.Duration) {
	r.displayCount++
	if !r.haveDisplay {
		r.haveDisplay = true
		r.lastDisplay = now
		return
	}
	gap := (now - r.lastDisplay).Seconds()
	if r.avgFrameDur == 0 {
		r.avgFrameDur = gap
	}
	// Paper §3.2: freeze if inter-arrival > max(3δ, δ+150ms).
	threshold := 3 * r.avgFrameDur
	if t2 := r.avgFrameDur + 0.150; t2 > threshold {
		threshold = t2
	}
	if gap > threshold {
		r.freezeTime += time.Duration(gap * float64(time.Second))
		r.freezeCount++
	}
	r.avgFrameDur = 0.95*r.avgFrameDur + 0.05*gap
	r.lastDisplay = now
}

// checkStall emits an FIR when decode has been blocked long enough.
func (r *Receiver) checkStall(now time.Duration) {
	if !r.stalled && !r.chainBroken {
		return
	}
	if !r.stalled {
		r.stalled = true
		r.stalledSince = now
	}
	if now-r.stalledSince >= firDamageThreshold && now-r.lastFIR >= firCooldown {
		r.lastFIR = now
		r.FIRCount++
		if r.OnFIR != nil {
			r.OnFIR(now)
		}
	}
}

// Take returns and resets the interval statistics; call it once per
// feedback period (e.g. 100ms).
func (r *Receiver) Take(now time.Duration) IntervalStats {
	interval := now - r.intervalStart
	st := IntervalStats{
		Interval:   interval,
		Expected:   r.expected,
		Received:   r.received,
		QueueDelay: time.Duration(r.owdEWMA * float64(time.Second)),
	}
	if r.expected > 0 {
		lost := r.expected - r.received
		if lost < 0 {
			lost = 0
		}
		st.LossFraction = float64(lost) / float64(r.expected)
	}
	if interval > 0 {
		st.RateBps = float64(r.bytes) * 8 / interval.Seconds()
	}
	r.intervalStart = now
	r.expected = 0
	r.received = 0
	r.bytes = 0
	return st
}

// FreezeTime returns cumulative display freeze time.
func (r *Receiver) FreezeTime() time.Duration { return r.freezeTime }

// FreezeCount returns the number of distinct freezes.
func (r *Receiver) FreezeCount() int { return r.freezeCount }

// FreezeRatio returns freeze time normalized by the call duration observed
// by this receiver (paper's Fig 3a metric). A stall that never resolved by
// the end of the observation (a fully frozen stream) counts as freeze time
// up to the last packet seen.
func (r *Receiver) FreezeRatio() float64 {
	if !r.havePacket || r.lastPacket <= r.firstPacket {
		return 0
	}
	freeze := r.freezeTime
	if r.haveDisplay {
		gap := (r.lastPacket - r.lastDisplay).Seconds()
		threshold := 3 * r.avgFrameDur
		if t2 := r.avgFrameDur + 0.150; t2 > threshold {
			threshold = t2
		}
		if gap > threshold {
			freeze += time.Duration(gap * float64(time.Second))
		}
	}
	return freeze.Seconds() / (r.lastPacket - r.firstPacket).Seconds()
}

// DisplayedFrames returns how many frames reached the renderer.
func (r *Receiver) DisplayedFrames() int { return r.displayCount }
