package rtp

import (
	"math/bits"
	"reflect"
	"testing"
	"time"
	"unsafe"
)

func TestRTXBufferPutGetEvict(t *testing.T) {
	b := NewRTXBuffer(4)
	for seq := uint16(0); seq < 4; seq++ {
		if ev, ok := b.Put(seq, int(seq), 100, int64(seq)); ok {
			t.Fatalf("unexpected eviction %v at seq %d", ev, seq)
		}
	}
	if b.ring().Len() != 4 {
		t.Fatalf("Len = %d, want 4", b.ring().Len())
	}
	p, size, at, ok := b.Get(2)
	if !ok || p.(int) != 2 || size != 100 || at != 2 {
		t.Fatalf("Get(2) = %v,%d,%d,%v", p, size, at, ok)
	}
	// Wraparound: seq 4 lands in slot 0, evicting seq 0 — the un-NACKed
	// oldest packet must come back so the caller can release it.
	if ev, ok := b.Put(4, 40, 100, 4); !ok || ev.(int) != 0 {
		t.Fatalf("Put(4) evicted %v, %v, want 0", ev, ok)
	}
	if _, _, _, ok := b.Get(0); ok {
		t.Fatal("seq 0 should be gone after wraparound eviction")
	}
	if _, _, _, ok := b.Get(4); !ok {
		t.Fatal("seq 4 should be retrievable")
	}
}

func TestRTXBufferDrain(t *testing.T) {
	b := NewRTXBuffer(8)
	for seq := uint16(10); seq < 15; seq++ {
		b.Put(seq, int(seq), 1, 0)
	}
	var freed []int
	b.Drain(func(p any) { freed = append(freed, p.(int)) })
	if len(freed) != 5 || b.ring().Len() != 0 {
		t.Fatalf("Drain freed %v, Len %d", freed, b.ring().Len())
	}
	if _, _, _, ok := b.Get(12); ok {
		t.Fatal("Get after Drain should miss")
	}
}

// typedEntry is a struct entry the way the SFU files one: it carries the
// seq it is filed under, and a nil ref is a free slot.
type typedEntry struct {
	ref       *int
	frameSeq  int32
	seq       uint16
	sizeFlags uint16
}

func (e typedEntry) RTXSeq() (uint16, bool) { return e.seq, e.ref != nil }

// TestRTXRingTypedEntries runs the ring at a struct instantiation, the way
// the SFU uses it: entries come back by value, a free slot evicts nothing,
// and a miss returns the zero entry.
func TestRTXRingTypedEntries(t *testing.T) {
	shared := 7
	b := NewRTXRing[typedEntry](2)
	if ev, ok := b.Put(typedEntry{&shared, 1, 10, 0}); ok || ev != (typedEntry{}) {
		t.Fatalf("Put into a free slot evicted %+v, %v", ev, ok)
	}
	b.Put(typedEntry{&shared, 2, 11, 0})
	if ev, ok := b.Put(typedEntry{&shared, 3, 12, 0}); !ok || ev.frameSeq != 1 || ev.ref != &shared {
		t.Fatalf("Put(12) evicted %+v, %v; want seq 10's entry", ev, ok)
	}
	if e, ok := b.Get(11); !ok || e.frameSeq != 2 {
		t.Fatalf("Get(11) = %+v,%v", e, ok)
	}
	if e, ok := b.Get(10); ok || e != (typedEntry{}) {
		t.Fatalf("Get(10) after eviction = %+v, %v", e, ok)
	}
	n := 0
	b.Drain(func(e typedEntry) { n += int(e.frameSeq) })
	if n != 5 || b.Len() != 0 {
		t.Fatalf("Drain visited frameSeq sum %d, Len %d; want 5, 0", n, b.Len())
	}
}

// TestRTXSlotLayout pins the slot the SFU's ring pays per packet: the slot
// is the entry, so a 16-byte entry (pointer, int32, two uint16) costs 16
// bytes a slot and nothing besides.
func TestRTXSlotLayout(t *testing.T) {
	b := NewRTXRing[typedEntry](512)
	if got := unsafe.Sizeof(b.slots[0]); got != 16 {
		t.Errorf("a ring slot at a 16-byte entry is %d bytes, want 16", got)
	}
}

// The three seq-indexed rings hold their capacity across the uint16 wrap:
// a capacity that does not divide 65536 is rounded up to a power of two,
// so the seqs either side of the wrap never share a slot.

func TestRTXBufferAcrossWrap(t *testing.T) {
	b := NewRTXBuffer(1000)
	for i := 0; i < 1000; i++ {
		b.Put(65000+uint16(i), i, 100, 0)
	}
	if p, _, _, ok := b.Get(65000); !ok || p.(int) != 0 {
		t.Fatalf("seq 65000 evicted by the 999 seqs after it across the wrap: %v, %v", p, ok)
	}
}

func TestTWCCRecorderAcrossWrap(t *testing.T) {
	r := NewTWCCRecorder(1000)
	for i := 0; i < 537; i++ {
		r.Record(65000+uint16(i), int64(i))
	}
	rep, ok := r.BuildReport()
	if !ok || rep.BaseSeq != 65000 || len(rep.DeltaUs) != 537 {
		t.Fatalf("report = base %d, %d deltas, ok %v; want base 65000, 537 deltas", rep.BaseSeq, len(rep.DeltaUs), ok)
	}
	for i, d := range rep.DeltaUs {
		if d != int32(i) {
			t.Fatalf("seq %d reported %d, want %d", 65000+uint16(i), d, i)
		}
	}
}

func TestSentHistoryAcrossWrap(t *testing.T) {
	h := NewSentHistory(1000)
	for i := 0; i < 1000; i++ {
		h.Record(65000+uint16(i), int64(i), 1200)
	}
	if at, _, ok := h.Lookup(65000); !ok || at != 0 {
		t.Fatalf("seq 65000 evicted by the 999 seqs after it across the wrap: %d, %v", at, ok)
	}
}

func TestNackQueueObserveGapAndRecover(t *testing.T) {
	q := NewNackQueue(3)
	q.Observe(10, 0, time.Second)
	if missing, _ := q.Observe(14, 0, time.Second); missing != 3 {
		t.Fatalf("missing = %d, want 3 (seqs 11,12,13)", missing)
	}
	if q.Len() != 3 {
		t.Fatalf("Len = %d, want 3", q.Len())
	}
	// Late arrival of a tracked seq clears the entry.
	if _, recovered := q.Observe(12, 0, time.Second); !recovered {
		t.Fatal("Observe(12) should report a recovered loss")
	}
	if q.Len() != 2 {
		t.Fatalf("Len = %d after recovery, want 2", q.Len())
	}
	// Duplicate of an already-delivered seq is not a recovery.
	if _, recovered := q.Observe(10, 0, time.Second); recovered {
		t.Fatal("duplicate of delivered seq must not count as recovered")
	}
}

func TestNackQueueObserveWraparound(t *testing.T) {
	q := NewNackQueue(3)
	q.Observe(65534, 0, time.Second)
	if missing, _ := q.Observe(2, 0, time.Second); missing != 3 {
		t.Fatalf("missing across wrap = %d, want 3 (65535, 0, 1)", missing)
	}
	var nacked []uint16
	q.Tick(0, 10*time.Millisecond, func(s uint16) { nacked = append(nacked, s) },
		func(uint16, bool) {})
	if !reflect.DeepEqual(nacked, []uint16{65535, 0, 1}) {
		t.Fatalf("nacked = %v", nacked)
	}
}

func TestNackQueueDuplicateSuppressionWithinBackoff(t *testing.T) {
	q := NewNackQueue(5)
	q.Observe(0, 0, time.Hour)
	q.Observe(2, 0, time.Hour) // seq 1 missing
	backoff := 40 * time.Millisecond
	count := func(now time.Duration) int {
		n := 0
		q.Tick(now, backoff, func(uint16) { n++ }, func(uint16, bool) {})
		return n
	}
	if n := count(0); n != 1 {
		t.Fatalf("first tick nacks = %d, want 1", n)
	}
	// Re-ticks inside the backoff window must not re-NACK.
	for _, now := range []time.Duration{10 * time.Millisecond, 39 * time.Millisecond} {
		if n := count(now); n != 0 {
			t.Fatalf("tick at %v nacks = %d, want 0 (backoff window)", now, n)
		}
	}
	if n := count(40 * time.Millisecond); n != 1 {
		t.Fatal("backoff expiry must re-NACK")
	}
}

func TestNackQueueGiveUpAfterMaxRetries(t *testing.T) {
	q := NewNackQueue(2)
	q.Observe(0, 0, time.Hour)
	q.Observe(2, 0, time.Hour) // seq 1 missing
	backoff := 10 * time.Millisecond
	var nacks int
	var gaveUp []uint16
	for i := 0; i < 6; i++ {
		q.Tick(time.Duration(i)*backoff, backoff,
			func(uint16) { nacks++ },
			func(s uint16, g bool) {
				if !g {
					t.Fatal("concede must be flagged as give-up")
				}
				gaveUp = append(gaveUp, s)
			})
	}
	if nacks != 2 {
		t.Fatalf("nacks = %d, want exactly maxRetries=2", nacks)
	}
	if !reflect.DeepEqual(gaveUp, []uint16{1}) {
		t.Fatalf("gaveUp = %v, want [1]", gaveUp)
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after give-up, want 0", q.Len())
	}
}

func TestNackQueueDeadlineConcede(t *testing.T) {
	q := NewNackQueue(100)
	q.Observe(0, 0, 50*time.Millisecond)
	q.Observe(2, 0, 50*time.Millisecond) // seq 1 missing, concede at 50ms
	var conceded []uint16
	q.Tick(50*time.Millisecond, time.Millisecond, func(uint16) {},
		func(s uint16, g bool) {
			if g {
				t.Fatal("deadline concession must not be flagged give-up")
			}
			conceded = append(conceded, s)
		})
	if !reflect.DeepEqual(conceded, []uint16{1}) {
		t.Fatalf("conceded = %v, want [1]", conceded)
	}
}

func TestNackQueueReset(t *testing.T) {
	q := NewNackQueue(3)
	q.Observe(0, 0, time.Second)
	q.Observe(10, 0, time.Second)
	if n := q.Reset(500); n != 9 {
		t.Fatalf("Reset dropped %d, want 9", n)
	}
	if q.Len() != 0 {
		t.Fatal("Len after Reset must be 0")
	}
	if missing, _ := q.Observe(502, 0, time.Second); missing != 1 {
		t.Fatalf("missing after Reset = %d, want 1 (seq 501)", missing)
	}
}

// TestAppendNackPairs packs ascending seq lists into (PID, BLP) pairs and
// expands them back: a pair reaches 16 seqs past its PID and no further,
// and the distance is taken modulo 2^16.
func TestAppendNackPairs(t *testing.T) {
	expand := func(pairs []NackPair) (seqs []uint16) {
		for _, p := range pairs {
			seqs = append(seqs, p.PacketID)
			for i := 0; i < 16; i++ {
				if p.Bitmask&(1<<i) != 0 {
					seqs = append(seqs, p.PacketID+uint16(i)+1)
				}
			}
		}
		return seqs
	}
	for _, c := range []struct {
		name string
		seqs []uint16
		want []NackPair
	}{
		{"empty", nil, nil},
		{"one pair", []uint16{100, 101, 103}, []NackPair{{100, 0b101}}},
		{"16 apart fits", []uint16{100, 116}, []NackPair{{100, 1 << 15}}},
		{"17 apart splits", []uint16{100, 117, 118}, []NackPair{{100, 0}, {117, 1}}},
		{"wrap at 65535", []uint16{65534, 65535, 0, 2}, []NackPair{{65534, 0b1011}}},
		{"split across the wrap", []uint16{65530, 20}, []NackPair{{65530, 0}, {20, 0}}},
	} {
		got := AppendNackPairs(nil, c.seqs)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: pairs %v, want %v", c.name, got, c.want)
		}
		if back := expand(got); !reflect.DeepEqual(back, c.seqs) {
			t.Errorf("%s: expands to %v, want %v", c.name, back, c.seqs)
		}
	}
	head := []NackPair{{7, 0}}
	if got := AppendNackPairs(head, []uint16{9}); len(got) != 2 || got[0] != head[0] || got[1] != (NackPair{9, 0}) {
		t.Errorf("append to existing pairs: %v", got)
	}
}

func TestTWCCRecorderReport(t *testing.T) {
	r := NewTWCCRecorder(64)
	r.Record(100, 1000)
	r.Record(101, 1500)
	// 102 lost.
	r.Record(103, 2500)
	rep, ok := r.BuildReport()
	if !ok {
		t.Fatal("BuildReport should produce a report")
	}
	if rep.BaseSeq != 100 || rep.RefTimeUs != 1000 {
		t.Fatalf("base/ref = %d/%d", rep.BaseSeq, rep.RefTimeUs)
	}
	want := []int32{0, 500, DeltaLost, 1500}
	if !reflect.DeepEqual(rep.DeltaUs, want) {
		t.Fatalf("deltas = %v, want %v", rep.DeltaUs, want)
	}
	// Nothing new: no report.
	if _, ok := r.BuildReport(); ok {
		t.Fatal("empty window must not report")
	}
	// Next window starts after the previous one.
	r.Record(104, 3000)
	rep, ok = r.BuildReport()
	if !ok || rep.BaseSeq != 104 || len(rep.DeltaUs) != 1 {
		t.Fatalf("second report = %+v, ok=%v", rep, ok)
	}
}

func TestTWCCRecorderRebaseOnHugeGap(t *testing.T) {
	r := NewTWCCRecorder(16)
	r.Record(0, 100)
	r.Record(1000, 200) // gap wider than the ring: re-base
	rep, ok := r.BuildReport()
	if !ok || rep.BaseSeq != 1000 || len(rep.DeltaUs) != 1 {
		t.Fatalf("report after rebase = %+v, ok=%v", rep, ok)
	}
}

func TestSentHistory(t *testing.T) {
	h := NewSentHistory(8)
	h.Record(5, 1000, 1200)
	at, size, ok := h.Lookup(5)
	if !ok || at != 1000 || size != 1200 {
		t.Fatalf("Lookup(5) = %d,%d,%v", at, size, ok)
	}
	h.Record(13, 2000, 300) // same slot (13%8 == 5): overwrites
	if _, _, ok := h.Lookup(5); ok {
		t.Fatal("seq 5 should be evicted by seq 13")
	}
	if at, size, ok := h.Lookup(13); !ok || at != 2000 || size != 300 {
		t.Fatal("seq 13 should be present")
	}
	h.Reset()
	if _, _, ok := h.Lookup(13); ok || !reflect.DeepEqual(h, NewSentHistory(8)) {
		t.Fatalf("a reset history holds %v, want a new one's", h.slots)
	}
}

// TestHistorySlotLayout pins what the two TWCC rings pay per seq: 2048
// send-history slots per down-track with a controller and up to 2048
// arrival slots per receiver, each one uint64.
func TestHistorySlotLayout(t *testing.T) {
	if got := unsafe.Sizeof(NewSentHistory(2048).slots[0]); got != 8 {
		t.Errorf("a SentHistory slot is %d bytes, want 8", got)
	}
	if got := unsafe.Sizeof(NewTWCCRecorder(2048).slots[0]); got != 8 {
		t.Errorf("a TWCCRecorder slot is %d bytes, want 8", got)
	}
}

// TestHistoryRejectsUnpackable: a value a packed slot cannot hold panics
// instead of wrapping into another seq's or another time's bits, and the
// limits themselves round-trip. A 2048-slot history keeps 5 seq bits and
// 46 bits of atUs (about 2.2 years of µs); a one-slot history keeps all
// 16 seq bits and 35 bits of atUs.
func TestHistoryRejectsUnpackable(t *testing.T) {
	for _, capacity := range []int{1, 2048} {
		h := NewSentHistory(capacity)
		limit := int64(h.pack.maxAt)
		if want := int64(1)<<(35+bits.TrailingZeros(uint(capacity))) - 1; limit != want {
			t.Errorf("capacity %d: atUs limit %d, want %d", capacity, limit, want)
		}
		h.Record(65535, limit, sizeMax)
		if at, size, ok := h.Lookup(65535); !ok || at != limit || size != sizeMax {
			t.Errorf("capacity %d: Lookup at the limits = %d, %d, %v", capacity, at, size, ok)
		}
		for _, bad := range []struct {
			atUs int64
			size int
		}{{limit + 1, 0}, {-1, 0}, {0, sizeMax + 1}, {0, -1}} {
			if !panics(func() { h.Record(1, bad.atUs, bad.size) }) {
				t.Errorf("capacity %d: Record(1, %d, %d) did not panic", capacity, bad.atUs, bad.size)
			}
		}
	}
	r := NewTWCCRecorder(1024)
	limit := int64(r.pack.maxAt)
	if want := int64(1)<<51 - 1; limit != want {
		t.Errorf("TWCC atUs limit %d, want %d (its 16-slot first ring fixes 4 seq bits)", limit, want)
	}
	for _, bad := range []int64{limit + 1, -1} {
		if !panics(func() { r.Record(1, bad) }) {
			t.Errorf("TWCC Record(1, %d) did not panic", bad)
		}
	}
	r.Record(1, limit)
	if rep, ok := r.BuildReport(); !ok || rep.RefTimeUs != limit {
		t.Errorf("TWCC report at the limit = %+v, %v", rep, ok)
	}
}

const sizeMax = 1<<sizeBits - 1

func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}
