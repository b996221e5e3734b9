package rtp

import "time"

// This file implements the sender- and receiver-side state machines of
// packet-level loss recovery: a seq-indexed retransmission ring
// (the sender keeps recent packets so it can answer NACKs) and a NACK
// queue that doubles as the receiver's loss tracker (gap detection from
// sequence numbers, bounded retries with per-seq backoff, give-up
// semantics). Both are fixed-capacity, allocation-free after
// construction, and know nothing about the simulator: callers supply
// time and payloads.

// RTXRing is a fixed-capacity retransmission buffer indexed by RTP
// sequence number. A slot is the entry itself: T knows the seq it was
// filed under and whether it holds anything (RTXEntry), so the ring adds
// no field of its own. Put files an entry under its seq and returns
// whatever older entry the slot evicts, so the caller can drop the
// references it holds; Get answers a NACK if the seq is still buffered. A
// slot is reused every capacity packets, so the ring holds the most recent
// `capacity` consecutive seqs of one stream. T is whatever the sender
// needs to rebuild the packet: the SFU stores a pointer to the shared
// ingress packet plus the header fields its down-track rewrote and the
// wire size. A drained ring is indistinguishable from a new one, so a
// caller may keep it for reuse.
type RTXRing[T RTXEntry] struct {
	slots []T
}

// RTXEntry is what an RTXRing slot holds. RTXSeq returns the seq the entry
// was filed under and whether it holds anything; the zero T must hold
// nothing.
type RTXEntry interface {
	RTXSeq() (seq uint16, held bool)
}

// ringSize rounds a ring capacity up to a power of two (at least 1), so a
// seq's slot stays the same across the uint16 wrap: 65536 is a multiple of
// every power of two up to it, and of nothing else.
func ringSize(capacity int) int {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return n
}

// NewRTXRing returns a ring holding up to capacity packets, capacity
// rounded up to a power of two.
func NewRTXRing[T RTXEntry](capacity int) *RTXRing[T] {
	return &RTXRing[T]{slots: make([]T, ringSize(capacity))}
}

func (b *RTXRing[T]) slot(seq uint16) *T { return &b.slots[int(seq)&(len(b.slots)-1)] }

// Put files e under its seq and returns the entry the slot held before
// (ok false if it was free). Filing the same seq twice evicts the older
// entry.
func (b *RTXRing[T]) Put(e T) (evicted T, ok bool) {
	seq, _ := e.RTXSeq()
	s := b.slot(seq)
	evicted = *s
	_, ok = evicted.RTXSeq()
	*s = e
	return evicted, ok
}

// Get returns the buffered entry for seq, if it has not been evicted.
func (b *RTXRing[T]) Get(seq uint16) (e T, ok bool) {
	s := b.slot(seq)
	if got, held := (*s).RTXSeq(); !held || got != seq {
		return e, false
	}
	return *s, true
}

// Len reports the number of buffered packets.
func (b *RTXRing[T]) Len() int {
	n := 0
	for _, e := range b.slots {
		if _, held := e.RTXSeq(); held {
			n++
		}
	}
	return n
}

// Drain hands every buffered entry to release and zeroes its slot,
// leaving the ring as NewRTXRing made it. Call at teardown so whatever
// the entries reference is let go.
func (b *RTXRing[T]) Drain(release func(e T)) {
	var zero T
	for i := range b.slots {
		if _, held := b.slots[i].RTXSeq(); held {
			release(b.slots[i])
			b.slots[i] = zero
		}
	}
}

// RTXBuffer is the ring at an untyped payload that also keeps each
// packet's wire size and send time, for callers that do not carry them
// in the payload.
type RTXBuffer RTXRing[bufEntry]

type bufEntry struct {
	payload any
	atUs    int64
	size    int32
	seq     uint16
	held    bool
}

func (e bufEntry) RTXSeq() (uint16, bool) { return e.seq, e.held }

// NewRTXBuffer returns an untyped ring holding up to capacity packets,
// capacity rounded up to a power of two.
func NewRTXBuffer(capacity int) *RTXBuffer {
	return (*RTXBuffer)(NewRTXRing[bufEntry](capacity))
}

func (b *RTXBuffer) ring() *RTXRing[bufEntry] { return (*RTXRing[bufEntry])(b) }

// Put stores payload under seq with its wire size and send time, and
// returns the payload the slot held before (ok false if it was free).
func (b *RTXBuffer) Put(seq uint16, payload any, size int, atUs int64) (evicted any, ok bool) {
	ev, ok := b.ring().Put(bufEntry{payload: payload, atUs: atUs, size: int32(size), seq: seq, held: true})
	return ev.payload, ok
}

// Get returns the buffered payload for seq with its size and send time,
// if it has not been evicted.
func (b *RTXBuffer) Get(seq uint16) (payload any, size int, atUs int64, ok bool) {
	e, ok := b.ring().Get(seq)
	return e.payload, int(e.size), e.atUs, ok
}

// Drain hands every buffered payload to release and empties the buffer.
func (b *RTXBuffer) Drain(release func(payload any)) {
	b.ring().Drain(func(e bufEntry) { release(e.payload) })
}

// NackQueue is the receiver's loss tracker and retransmission-request
// scheduler for one sequence space. Observe detects gaps from arriving
// sequence numbers and enqueues the missing seqs; Tick emits NACKs for
// entries whose backoff has expired (no re-NACK before the RTT-derived
// timeout the caller passes) and concedes entries whose playout deadline
// passed or whose retries are exhausted.
type NackQueue struct {
	maxRetries int
	started    bool
	highest    uint16
	entries    []nackEntry
	scratch    []nackEntry
}

type nackEntry struct {
	seq      uint16
	retries  int
	nextAt   time.Duration // earliest next NACK
	deadline time.Duration // concede (stop waiting) at this time
}

// NewNackQueue returns a queue that gives up on a seq after maxRetries
// NACKs go unanswered.
func NewNackQueue(maxRetries int) *NackQueue {
	if maxRetries < 1 {
		maxRetries = 1
	}
	return &NackQueue{maxRetries: maxRetries}
}

// Observe feeds an arriving sequence number to the loss tracker.
// Arrivals beyond the highest seen seq enqueue every skipped seq as
// missing, each NACK-eligible immediately and conceded at deadline;
// arrivals at or below the highest seq clear a pending entry if one
// exists. It returns the number of newly missing seqs and whether this
// arrival cleared a pending entry (i.e. recovered a tracked loss).
func (q *NackQueue) Observe(seq uint16, now, deadline time.Duration) (missing int, recovered bool) {
	if !q.started {
		q.started = true
		q.highest = seq
		return 0, false
	}
	d := SeqDiff(q.highest, seq)
	if d <= 0 {
		return 0, q.Remove(seq)
	}
	for s := q.highest + 1; s != seq; s++ {
		q.entries = append(q.entries, nackEntry{seq: s, nextAt: now, deadline: deadline})
		missing++
	}
	q.highest = seq
	return missing, false
}

// Remove clears the entry for seq (the packet arrived, e.g. via RTX) and
// reports whether one was pending.
func (q *NackQueue) Remove(seq uint16) bool {
	for i := range q.entries {
		if q.entries[i].seq == seq {
			q.entries = append(q.entries[:i], q.entries[i+1:]...)
			return true
		}
	}
	return false
}

// Tick advances the retry state machine. For every pending entry, in
// insertion (ascending seq) order:
//   - past its deadline, or out of retries with its backoff expired, the
//     entry is removed and conceded via concede(seq, gaveUp);
//   - otherwise, if its backoff expired, nack(seq) fires, the retry
//     counter increments and the entry may not be re-NACKed before
//     now+backoff (duplicate suppression within the backoff window).
func (q *NackQueue) Tick(now, backoff time.Duration, nack func(seq uint16), concede func(seq uint16, gaveUp bool)) {
	if len(q.entries) == 0 {
		return
	}
	keep := q.scratch[:0]
	for _, e := range q.entries {
		switch {
		case now >= e.deadline:
			concede(e.seq, false)
			continue
		case now >= e.nextAt && e.retries >= q.maxRetries:
			concede(e.seq, true)
			continue
		case now >= e.nextAt:
			nack(e.seq)
			e.retries++
			e.nextAt = now + backoff
		}
		keep = append(keep, e)
	}
	q.scratch = q.entries[:0]
	q.entries = keep
}

// Len reports the number of pending (missing, not yet conceded) seqs.
func (q *NackQueue) Len() int { return len(q.entries) }

// NackPair is one RFC 4585 generic-NACK entry: a lost packet and a bitmask
// of losses among the 16 seqs that follow it.
type NackPair struct {
	PacketID uint16
	Bitmask  uint16
}

// AppendNackPairs packs an ascending seq list into RFC 4585 (PID, BLP)
// pairs appended to pairs: each pair names one lost packet plus a bitmask
// of losses in the following 16 seqs.
func AppendNackPairs(pairs []NackPair, seqs []uint16) []NackPair {
	for i := 0; i < len(seqs); {
		p := NackPair{PacketID: seqs[i]}
		j := i + 1
		for ; j < len(seqs); j++ {
			d := SeqDiff(p.PacketID, seqs[j])
			if d < 1 || d > 16 {
				break
			}
			p.Bitmask |= 1 << (d - 1)
		}
		pairs = append(pairs, p)
		i = j
	}
	return pairs
}

// Reset clears all pending entries and re-bases the tracker at seq, for
// catastrophic gaps (e.g. after a partition) where chasing every missing
// seq is pointless. It returns the number of entries dropped.
func (q *NackQueue) Reset(seq uint16) int {
	n := len(q.entries)
	q.entries = q.entries[:0]
	q.highest = seq
	q.started = true
	return n
}
