package rtp

// Transport-wide congestion control (TWCC,
// draft-holmer-rmcat-transport-wide-cc-extensions): the sender stamps
// every outgoing packet — media, FEC, padding and retransmissions alike
// — with a transport-wide sequence number; the receiver periodically
// reports per-packet arrival times keyed by that seq; the sender joins
// arrivals against its own send-time history to recover one-way delay,
// loss and receive rate per transport. This file carries the feedback
// message plus the two ring-buffer state machines at either end. The
// message is a simplified fixed-width rendering of the real TWCC chunk
// encoding: a base seq, a reference time and one 32-bit arrival delta per
// packet, -1 marking a loss. It travels as a typed value; the simulator
// charges its wire size and never serializes it.

// DeltaLost marks a never-received packet in TransportCC.DeltaUs.
const DeltaLost = int32(-1)

// TransportCC reports per-packet arrival times for the transport-wide
// seqs [BaseSeq, BaseSeq+len(DeltaUs)). DeltaUs[i] is the arrival time
// of BaseSeq+i in microseconds after RefTimeUs, or DeltaLost.
type TransportCC struct {
	BaseSeq   uint16
	RefTimeUs int64
	DeltaUs   []int32
}

// TWCCRecorder is the receiver half: it records arrival times by
// transport-wide seq and periodically flushes them into TransportCC
// reports. Fixed capacity; a gap wider than the ring re-bases the
// recorder (the skipped range is reported lost). A receiver with nobody to
// report to holds a nil *TWCCRecorder, on which Record and Reset do nothing.
type TWCCRecorder struct {
	started bool
	next    uint16 // first seq not yet reported
	highest uint16
	slots   []twccSlot
}

type twccSlot struct {
	seq   uint16
	valid bool
	atUs  int64
}

// NewTWCCRecorder returns a recorder buffering up to capacity arrivals
// between reports.
func NewTWCCRecorder(capacity int) *TWCCRecorder {
	if capacity <= 0 {
		capacity = 1
	}
	return &TWCCRecorder{slots: make([]twccSlot, capacity)}
}

// Record notes that seq arrived at atUs microseconds. Seqs at or before
// the last report are dropped (they were already reported lost).
func (r *TWCCRecorder) Record(seq uint16, atUs int64) {
	if r == nil {
		return
	}
	if !r.started {
		r.started = true
		r.next = seq
		r.highest = seq
		r.slots[int(seq)%len(r.slots)] = twccSlot{seq: seq, valid: true, atUs: atUs}
		return
	}
	if SeqDiff(r.next, seq) < 0 {
		return // before the report window: already flushed
	}
	if d := SeqDiff(r.highest, seq); d > 0 {
		if SeqDiff(r.next, seq) >= len(r.slots) {
			// Catastrophic gap: everything unreported is lost; re-base
			// so the window [next, highest] stays within capacity.
			for i := range r.slots {
				r.slots[i] = twccSlot{}
			}
			r.next = seq
		}
		r.highest = seq
	}
	r.slots[int(seq)%len(r.slots)] = twccSlot{seq: seq, valid: true, atUs: atUs}
}

// Reset returns the recorder to its just-constructed state, keeping the
// ring.
func (r *TWCCRecorder) Reset() {
	if r == nil {
		return
	}
	for i := range r.slots {
		r.slots[i] = twccSlot{}
	}
	r.started, r.next, r.highest = false, 0, 0
}

// BuildReport is AppendReport into a fresh delta slice.
func (r *TWCCRecorder) BuildReport() (TransportCC, bool) { return r.AppendReport(nil) }

// AppendReport flushes all arrivals since the previous report into a
// TransportCC covering [next, highest], its deltas appended to deltas
// (pass a recycled slice's [:0] to build without allocating). It returns
// false when nothing new arrived. The report's RefTimeUs is the earliest
// arrival included.
func (r *TWCCRecorder) AppendReport(deltas []int32) (TransportCC, bool) {
	if !r.started {
		return TransportCC{}, false
	}
	span := SeqDiff(r.next, r.highest) + 1
	if span <= 0 {
		return TransportCC{}, false
	}
	ref := int64(-1)
	for i := 0; i < span; i++ {
		seq := r.next + uint16(i)
		s := &r.slots[int(seq)%len(r.slots)]
		if s.valid && s.seq == seq && (ref < 0 || s.atUs < ref) {
			ref = s.atUs
		}
	}
	if ref < 0 {
		return TransportCC{}, false // window is all losses; wait for an arrival
	}
	base := len(deltas)
	for i := 0; i < span; i++ {
		seq := r.next + uint16(i)
		s := &r.slots[int(seq)%len(r.slots)]
		if s.valid && s.seq == seq {
			deltas = append(deltas, int32(s.atUs-ref))
			*s = twccSlot{}
		} else {
			deltas = append(deltas, DeltaLost)
		}
	}
	rep := TransportCC{BaseSeq: r.next, RefTimeUs: ref, DeltaUs: deltas[base:]}
	r.next = r.highest + 1
	return rep, true
}

// SentHistory is the sender half: a ring of send times and wire sizes by
// transport-wide seq, joined against incoming TransportCC reports.
type SentHistory struct {
	slots []sentSlot
}

type sentSlot struct {
	seq   uint16
	valid bool
	size  int32 // beside seq and valid, so a slot packs to 16 bytes
	atUs  int64
}

// NewSentHistory returns a history holding the last capacity sends.
func NewSentHistory(capacity int) *SentHistory {
	if capacity <= 0 {
		capacity = 1
	}
	return &SentHistory{slots: make([]sentSlot, capacity)}
}

// Record notes that seq was sent at atUs with the given wire size.
func (h *SentHistory) Record(seq uint16, atUs int64, size int) {
	h.slots[int(seq)%len(h.slots)] = sentSlot{seq: seq, valid: true, size: int32(size), atUs: atUs}
}

// Lookup returns the send time and size for seq if still in the ring.
func (h *SentHistory) Lookup(seq uint16) (atUs int64, size int, ok bool) {
	s := &h.slots[int(seq)%len(h.slots)]
	if !s.valid || s.seq != seq {
		return 0, 0, false
	}
	return s.atUs, int(s.size), true
}
