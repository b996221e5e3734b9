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
// reports. Its capacity is logical: a gap wider than it re-bases the
// recorder (the skipped range is reported lost). The ring itself starts
// at twccMinSlots and doubles, up to the capacity, only when the
// unreported window [next, highest] outgrows it: every held arrival lies
// in that window, so a report never depends on how far the ring has
// grown, and a receiver reporting every 100 ms never pays for the
// capacity it does not use. A receiver with nobody to report to holds a
// nil *TWCCRecorder, on which Record and Reset do nothing.
type TWCCRecorder struct {
	started  bool
	next     uint16 // first seq not yet reported
	highest  uint16
	capacity int // logical, a power of two: the widest window before a re-base
	slots    []historySlot
}

// twccMinSlots is the ring a TWCCRecorder starts with.
const twccMinSlots = 16

// NewTWCCRecorder returns a recorder buffering up to capacity arrivals
// between reports, capacity rounded up to a power of two.
func NewTWCCRecorder(capacity int) *TWCCRecorder {
	capacity = ringSize(capacity)
	return &TWCCRecorder{capacity: capacity, slots: make([]historySlot, min(capacity, twccMinSlots))}
}

func (r *TWCCRecorder) slot(seq uint16) *historySlot { return &r.slots[int(seq)&(len(r.slots)-1)] }

// Record notes that seq arrived at atUs microseconds. Seqs at or before
// the last report are dropped (they were already reported lost).
func (r *TWCCRecorder) Record(seq uint16, atUs int64) {
	if r == nil {
		return
	}
	v := historySlot{atUs: atUs, seq: seq, valid: true}
	if !r.started {
		r.started = true
		r.next = seq
		r.highest = seq
		*r.slot(seq) = v
		return
	}
	ahead := SeqDiff(r.next, seq)
	if ahead < 0 {
		return // before the report window: already flushed
	}
	if SeqDiff(r.highest, seq) > 0 {
		if ahead >= r.capacity {
			// Catastrophic gap: everything unreported is lost; re-base
			// so the window [next, highest] stays within capacity.
			clear(r.slots)
			r.next, ahead = seq, 0
		}
		r.highest = seq
		if ahead >= len(r.slots) {
			r.grow(ahead + 1)
		}
	}
	*r.slot(seq) = v
}

// grow doubles the ring until it spans a window of span seqs, re-filing
// the held arrivals.
func (r *TWCCRecorder) grow(span int) {
	n := len(r.slots)
	for n < span {
		n <<= 1
	}
	old := r.slots
	r.slots = make([]historySlot, n)
	for _, s := range old {
		if s.valid {
			*r.slot(s.seq) = s
		}
	}
}

// Reset returns the recorder to its just-constructed state, keeping the
// ring.
func (r *TWCCRecorder) Reset() {
	if r == nil {
		return
	}
	clear(r.slots)
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
		if s := r.slot(seq); s.holds(seq) && (ref < 0 || s.atUs < ref) {
			ref = s.atUs
		}
	}
	if ref < 0 {
		return TransportCC{}, false // window is all losses; wait for an arrival
	}
	base := len(deltas)
	for i := 0; i < span; i++ {
		seq := r.next + uint16(i)
		s := r.slot(seq)
		if s.holds(seq) {
			deltas = append(deltas, int32(s.atUs-ref))
			*s = historySlot{}
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
	slots []historySlot
}

// historySlot is one seq's entry in either ring; the zero slot is empty.
// A TWCCRecorder leaves size zero.
type historySlot struct {
	atUs  int64
	size  int32
	seq   uint16
	valid bool
}

// holds reports whether the slot is taken by seq rather than empty or
// taken by another seq filed under the same index.
func (s *historySlot) holds(seq uint16) bool { return s.valid && s.seq == seq }

// NewSentHistory returns a history holding the last capacity sends,
// capacity rounded up to a power of two.
func NewSentHistory(capacity int) *SentHistory {
	return &SentHistory{slots: make([]historySlot, ringSize(capacity))}
}

func (h *SentHistory) slot(seq uint16) *historySlot { return &h.slots[int(seq)&(len(h.slots)-1)] }

// Reset forgets every send, leaving the history as NewSentHistory made it,
// so a caller may keep it for reuse.
func (h *SentHistory) Reset() { clear(h.slots) }

// Record notes that seq was sent at atUs with the given wire size.
func (h *SentHistory) Record(seq uint16, atUs int64, size int) {
	*h.slot(seq) = historySlot{atUs: atUs, size: int32(size), seq: seq, valid: true}
}

// Lookup returns the send time and size for seq if still in the ring.
func (h *SentHistory) Lookup(seq uint16) (atUs int64, size int, ok bool) {
	if s := h.slot(seq); s.holds(seq) {
		return s.atUs, int(s.size), true
	}
	return 0, 0, false
}
