package rtp

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// refSlot is the references' history slot, compared field by field
// rather than through historySlot.holds.
type refSlot struct {
	seq   uint16
	valid bool
	size  int32
	atUs  int64
}

// clockLimit is the latest time the fuzzers' clocks reach: far past any
// call, and far from overflowing a step.
const clockLimit = int64(1) << 62

// fixedRecorder is the TWCC recorder with its whole capacity allocated up
// front: the reference the growing ring is held to.
type fixedRecorder struct {
	started       bool
	next, highest uint16
	slots         []refSlot
}

func (r *fixedRecorder) record(seq uint16, atUs int64) {
	if !r.started {
		r.started, r.next, r.highest = true, seq, seq
	} else if SeqDiff(r.next, seq) < 0 {
		return
	} else if SeqDiff(r.highest, seq) > 0 {
		if SeqDiff(r.next, seq) >= len(r.slots) {
			clear(r.slots)
			r.next = seq
		}
		r.highest = seq
	}
	r.slots[int(seq)%len(r.slots)] = refSlot{seq: seq, valid: true, atUs: atUs}
}

func (r *fixedRecorder) report() (TransportCC, bool) {
	span := SeqDiff(r.next, r.highest) + 1
	if !r.started || span <= 0 {
		return TransportCC{}, false
	}
	ref := int64(-1)
	for i := 0; i < span; i++ {
		seq := r.next + uint16(i)
		if s := r.slots[int(seq)%len(r.slots)]; s.valid && s.seq == seq && (ref < 0 || s.atUs < ref) {
			ref = s.atUs
		}
	}
	if ref < 0 {
		return TransportCC{}, false
	}
	rep := TransportCC{BaseSeq: r.next, RefTimeUs: ref}
	for i := 0; i < span; i++ {
		seq := r.next + uint16(i)
		s := &r.slots[int(seq)%len(r.slots)]
		if s.valid && s.seq == seq {
			rep.DeltaUs = append(rep.DeltaUs, int32(s.atUs-ref))
			*s = refSlot{}
		} else {
			rep.DeltaUs = append(rep.DeltaUs, DeltaLost)
		}
	}
	r.next = r.highest + 1
	return rep, true
}

// FuzzTWCCRecorderWindow drives the growing recorder and the fixed one
// through the same calls and requires every report to match field for
// field. data[0]'s low 7 bits pick the capacity (1 to 2048) and its top
// bit starts the clock 4096 µs short of clockLimit,
// data[1:3] the first seq; each following 3-byte op is a Record — a small
// step forward, a late or duplicate seq behind the cursor, a jump of up
// to 4080 seqs, or any int16 step, so gaps wider than the capacity and
// the uint16 wrap both occur — an AppendReport into a recycled slice, or
// a Reset. The clock moves by -28 to 227 µs a Record and is held to
// [0, clockLimit]. Plain `go test` replays the seeds below: hand-written
// cases plus 64 random ones.
func FuzzTWCCRecorderWindow(f *testing.F) {
	// Capacity 16 from seq 10: in order, reported, one more, reported.
	f.Add([]byte{4, 0, 10, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 5, 0, 0, 0, 1, 0, 5, 0, 0})
	// Capacity 16: out of order, a duplicate, a late seq behind the report.
	f.Add([]byte{4, 0, 10, 0, 3, 0, 1, 2, 0, 0, 1, 0, 0, 0, 0, 5, 0, 0, 1, 3, 0, 3, 6, 0, 5, 0, 0})
	// Capacity 4: two gaps wider than the capacity.
	f.Add([]byte{2, 1, 0, 0, 1, 0, 3, 200, 0, 0, 2, 0, 5, 0, 0, 4, 1, 0, 6, 0, 0})
	// Capacity 2048 from seq 65480: across the wrap, then a 2080-seq gap.
	f.Add([]byte{11, 255, 200, 0, 0, 0, 3, 30, 0, 3, 40, 0, 1, 5, 0, 5, 0, 0, 4, 130, 0, 6, 0, 0})
	// Capacity 1024: a reset, then a restart across the wrap.
	f.Add([]byte{10, 255, 250, 0, 2, 0, 0, 2, 0, 7, 0, 0, 0, 3, 0, 5, 0, 0})
	// Capacity 64: windows of exactly 17 and 33 grow the ring 16 -> 32 -> 64,
	// then a window of 65 re-bases.
	f.Add([]byte{6, 0, 0, 0, 0, 0, 3, 16, 0, 3, 16, 0, 1, 7, 0, 5, 0, 0, 3, 63, 0, 3, 1, 0, 3, 1, 0, 6, 0, 0})
	// Capacity 16 near the clock limit: arrivals 100 µs apart, reported,
	// then 24 steps of 227 µs that reach the limit and stay there, the
	// ring grown to 32 on the way.
	up := bytes.Repeat([]byte{0, 1, 127}, 12)
	f.Add(slices.Concat([]byte{0x84, 0, 0, 0, 1, 0, 0, 1, 0, 5, 0, 0}, up, []byte{3, 20, 127}, up, []byte{6, 0, 0}))
	// Capacity 1 (a one-slot ring) at the clock limit, across the wrap.
	f.Add(slices.Concat([]byte{0x80, 255, 254}, up, up, []byte{5, 0, 0, 0, 1, 127, 5, 0, 0, 3, 30, 127, 6, 0, 0}))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		data := make([]byte, 3+3*rng.Intn(200))
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		capacity := 1 << (data[0] & 0x7f % 12)
		got := NewTWCCRecorder(capacity)
		want := &fixedRecorder{slots: make([]refSlot, capacity)}
		cur := uint16(data[1])<<8 | uint16(data[2])
		var clock int64
		if data[0]&0x80 != 0 {
			clock = clockLimit - 4096
		}
		var deltas []int32
		check := func(op int) {
			g, gok := got.AppendReport(deltas[:0])
			w, wok := want.report()
			if gok != wok || g.BaseSeq != w.BaseSeq || g.RefTimeUs != w.RefTimeUs || !slices.Equal(g.DeltaUs, w.DeltaUs) {
				t.Fatalf("op %d, capacity %d: report %v %+v, want %v %+v", op, capacity, gok, g, wok, w)
			}
			deltas = g.DeltaUs
		}
		for i := 3; i+3 <= len(data); i += 3 {
			op, a, b := data[i], data[i+1], data[i+2]
			switch op % 8 {
			case 0:
				cur += uint16(a % 4)
			case 1:
				cur -= uint16(a % 8)
			case 2:
				cur += uint16(int16(uint16(a)<<8 | uint16(b)))
			case 3:
				cur += uint16(a)
			case 4:
				cur += uint16(a) << 4
			case 5, 6:
				check(i / 3)
				continue
			case 7:
				got.Reset()
				want = &fixedRecorder{slots: make([]refSlot, capacity)}
				continue
			}
			clock = min(max(clock+int64(int8(b))+100, 0), clockLimit)
			got.Record(cur, clock)
			want.record(cur, clock)
		}
		check(len(data) / 3)
	})
}

// refHistory is SentHistory written out plainly: the reference the ring
// is held to.
type refHistory []refSlot

func (h refHistory) record(seq uint16, atUs int64, size int) {
	h[int(seq)&(len(h)-1)] = refSlot{seq: seq, valid: true, size: int32(size), atUs: atUs}
}

func (h refHistory) lookup(seq uint16) (atUs int64, size int, ok bool) {
	if s := h[int(seq)&(len(h)-1)]; s.valid && s.seq == seq {
		return s.atUs, int(s.size), true
	}
	return 0, 0, false
}

// FuzzSentHistory runs SentHistory and refHistory through one
// program and requires every Lookup to match. data[0:2] picks the
// capacity (1 to 4096, most not a power of two), data[2:4] the first seq,
// and data[4]'s low bit starts the clock 4096 µs short of clockLimit. Each following 4-byte op [op a b c] is a Record — a
// step of up to 3 seqs, a step back of up to 7, or any int16 step, so the
// uint16 wrap and seqs that share a slot both occur, with a size of
// b<<4|op>>4 (0 to 4095) at a clock that moves by int8(c)+100 µs, held to
// [0, clockLimit] — or a Lookup of a seq within int8(a) of the cursor.
// Each Record is followed by Lookups of its seq and of the 16 seqs one bit
// away, among them every seq filed under the same slot that differs from
// it in one bit the ring index does not fix.
func FuzzSentHistory(f *testing.F) {
	// Capacity 16 from seq 65530: in order across the wrap, a lookup of
	// the slot's previous seq, a step back.
	f.Add([]byte{0, 15, 255, 250, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0,
		3, 0xf0, 0, 0, 3, 0, 0, 0, 1, 3, 0, 0, 0, 1, 0, 0})
	// Capacity 100 (a 128-slot ring): a jump of exactly 128 onto the same
	// slot, then one of 32768.
	f.Add([]byte{0, 99, 0, 10, 0, 0, 1, 0, 0, 2, 0, 128, 0, 3, 0x80, 0, 0, 2, 128, 0, 0, 3, 0, 0, 0})
	// Capacity 3 (a 4-slot ring) and capacity 1 (one slot), each with
	// seqs 4 and 65536-4 apart.
	f.Add([]byte{0, 2, 0, 0, 0, 0, 1, 0, 0, 2, 0, 4, 0, 1, 4, 0, 0, 2, 255, 252, 0, 3, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 0, 0, 2, 0, 1, 0, 2, 128, 0, 0, 3, 0, 0, 0})
	// Capacity 2000 (2048 slots, as each down-track keeps) at the clock
	// limit: 24 records of 4095 B 227 µs apart reach it and stay there,
	// then a 0 B one.
	full := bytes.Repeat([]byte{0xf0, 1, 255, 127}, 24)
	f.Add(slices.Concat([]byte{7, 207, 1, 0, 1}, full, []byte{0, 1, 0, 127, 3, 0xf0, 0, 0}))
	// Capacity 1 at the clock limit.
	f.Add(slices.Concat([]byte{0, 0, 255, 255, 1}, full, []byte{0xf2, 0, 0, 127, 3, 0, 0, 0}))
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 64; i++ {
		data := make([]byte, 5+4*rng.Intn(200))
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		capacity := 1 + int(uint16(data[0])<<8|uint16(data[1]))%4096
		got := NewSentHistory(capacity)
		want := make(refHistory, ringSize(capacity))
		cur := uint16(data[2])<<8 | uint16(data[3])
		var clock int64
		if data[4]&1 != 0 {
			clock = clockLimit - 4096
		}
		check := func(op int, seq uint16) {
			gAt, gSize, gok := got.Lookup(seq)
			wAt, wSize, wok := want.lookup(seq)
			if gAt != wAt || gSize != wSize || gok != wok {
				t.Fatalf("op %d, capacity %d: Lookup(%d) = %d, %d, %v, want %d, %d, %v",
					op, capacity, seq, gAt, gSize, gok, wAt, wSize, wok)
			}
		}
		for i := 5; i+4 <= len(data); i += 4 {
			op, a, b, c := data[i], data[i+1], data[i+2], data[i+3]
			switch op % 4 {
			case 0:
				cur += uint16(a % 4)
			case 1:
				cur -= uint16(a % 8)
			case 2:
				cur += uint16(int16(uint16(a)<<8 | uint16(b)))
			case 3:
				check(i/4, cur+uint16(int8(a)))
				continue
			}
			clock = min(max(clock+int64(int8(c))+100, 0), clockLimit)
			size := int(b)<<4 | int(op>>4)
			got.Record(cur, clock, size)
			want.record(cur, clock, size)
			check(i/4, cur)
			for b := range 16 {
				check(i/4, cur^1<<b)
			}
		}
	})
}
