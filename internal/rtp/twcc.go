package rtp

import (
	"fmt"
	"math/bits"
)

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
	// pack is fixed by the first ring, whose index fixes fewest seq bits,
	// so a grown ring re-files a slot without re-packing it.
	pack  slotPacking
	slots []uint64
}

// twccMinSlots is the ring a TWCCRecorder starts with.
const twccMinSlots = 16

// NewTWCCRecorder returns a recorder buffering up to capacity arrivals
// between reports, capacity rounded up to a power of two.
func NewTWCCRecorder(capacity int) *TWCCRecorder {
	capacity = ringSize(capacity)
	n := min(capacity, twccMinSlots)
	return &TWCCRecorder{capacity: capacity, pack: newSlotPacking(n, 0), slots: make([]uint64, n)}
}

func (r *TWCCRecorder) slot(seq uint16) *uint64 { return &r.slots[int(seq)&(len(r.slots)-1)] }

// Record notes that seq arrived at atUs microseconds. Seqs at or before
// the last report are dropped (they were already reported lost). An atUs
// a slot cannot hold (see slotPacking) panics.
func (r *TWCCRecorder) Record(seq uint16, atUs int64) {
	if r == nil {
		return
	}
	v := r.pack.pack(seq, atUs, 0)
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
	r.slots = make([]uint64, n)
	for i, v := range old {
		if v&slotValid != 0 {
			*r.slot(r.pack.seq(v, i)) = v
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
		if atUs, _, ok := r.pack.unpack(*r.slot(seq), seq); ok && (ref < 0 || atUs < ref) {
			ref = atUs
		}
	}
	if ref < 0 {
		return TransportCC{}, false // window is all losses; wait for an arrival
	}
	base := len(deltas)
	for i := 0; i < span; i++ {
		seq := r.next + uint16(i)
		s := r.slot(seq)
		if atUs, _, ok := r.pack.unpack(*s, seq); ok {
			deltas = append(deltas, int32(atUs-ref))
			*s = 0
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
	pack  slotPacking
	slots []uint64
}

// NewSentHistory returns a history holding the last capacity sends,
// capacity rounded up to a power of two.
func NewSentHistory(capacity int) *SentHistory {
	n := ringSize(capacity)
	return &SentHistory{pack: newSlotPacking(n, sizeBits), slots: make([]uint64, n)}
}

func (h *SentHistory) slot(seq uint16) *uint64 { return &h.slots[int(seq)&(len(h.slots)-1)] }

// Reset forgets every send, leaving the history as NewSentHistory made it,
// so a caller may keep it for reuse.
func (h *SentHistory) Reset() { clear(h.slots) }

// Record notes that seq was sent at atUs with the given wire size. An atUs or
// a size a slot cannot hold (see slotPacking) panics.
func (h *SentHistory) Record(seq uint16, atUs int64, size int) {
	*h.slot(seq) = h.pack.pack(seq, atUs, size)
}

// Lookup returns the send time and size for seq if still in the ring.
func (h *SentHistory) Lookup(seq uint16) (atUs int64, size int, ok bool) {
	return h.pack.unpack(*h.slot(seq), seq)
}

// sizeBits holds a SentHistory slot's wire size, as the SFU's RTX ring
// entry holds it.
const sizeBits = 12

// slotValid marks a taken slot; the zero slot is empty.
const slotValid = uint64(1) << 63

// slotPacking packs a history slot into one uint64. From the top: the
// valid bit, atUs, the seq bits the ring index does not fix, and the wire
// size in sizeBits bits (none for a TWCCRecorder, which keeps no size).
// An atUs below zero or above maxAt, or a size that does not fit, is a
// caller's fault, and pack panics rather than wrap it. Every shift amount
// is masked with 63, which it never exceeds, so each compiles to a bare
// shift: the histories pack and unpack once per packet.
type slotPacking struct {
	idxBits  uint // seq bits the (smallest) ring's index fixes, at most 16
	sizeBits uint
	atShift  uint   // sizeBits plus the stored seq bits
	keyMask  uint64 // the valid bit and the stored seq bits
	maxAt    uint64 // the latest atUs a slot holds
}

func newSlotPacking(ringLen int, sizeBits uint) slotPacking {
	idx := min(uint(bits.TrailingZeros(uint(ringLen))), 16)
	at := sizeBits + 16 - idx
	return slotPacking{idxBits: idx, sizeBits: sizeBits, atShift: at,
		keyMask: slotValid | (1<<at-1)&^(1<<sizeBits-1), maxAt: 1<<(63-at) - 1}
}

// key is what a slot holding seq has under keyMask.
func (p *slotPacking) key(seq uint16) uint64 {
	return slotValid | uint64(seq)>>(p.idxBits&63)<<(p.sizeBits&63)
}

func (p *slotPacking) pack(seq uint16, atUs int64, size int) uint64 {
	if uint64(atUs) > p.maxAt || uint64(size)>>(p.sizeBits&63) != 0 {
		panic(unpackable{*p, seq, atUs, size})
	}
	return p.key(seq) | uint64(atUs)<<(p.atShift&63) | uint64(size)
}

// unpack returns what slot v holds for seq, or false when v is empty or
// holds another seq filed under the same index.
func (p *slotPacking) unpack(v uint64, seq uint16) (atUs int64, size int, ok bool) {
	if v&p.keyMask != p.key(seq) {
		return 0, 0, false
	}
	return int64(v &^ slotValid >> (p.atShift & 63)), int(v & (1<<(p.sizeBits&63) - 1)), true
}

// seq returns the seq slot v holds, filed at index i of a ring at least as
// long as the one p was made for.
func (p *slotPacking) seq(v uint64, i int) uint16 {
	return uint16(v>>(p.sizeBits&63)<<(p.idxBits&63)) | uint16(i)&(1<<(p.idxBits&63)-1)
}

// unpackable is pack's panic value; formatting it only when it is printed
// keeps pack small enough to inline.
type unpackable struct {
	p    slotPacking
	seq  uint16
	atUs int64
	size int
}

func (u unpackable) Error() string {
	return fmt.Sprintf("rtp: seq %d at %d us, %d B does not fit a history slot (atUs 0..%d, size 0..%d)",
		u.seq, u.atUs, u.size, u.p.maxAt, 1<<u.p.sizeBits-1)
}
