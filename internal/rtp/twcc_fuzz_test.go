package rtp

import (
	"math/rand"
	"slices"
	"testing"
)

// fixedRecorder is the TWCC recorder with its whole capacity allocated up
// front: the reference the growing ring is held to.
type fixedRecorder struct {
	started       bool
	next, highest uint16
	slots         []twccSlot
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
	r.slots[int(seq)%len(r.slots)] = twccSlot{seq: seq, valid: true, atUs: atUs}
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
			*s = twccSlot{}
		} else {
			rep.DeltaUs = append(rep.DeltaUs, DeltaLost)
		}
	}
	r.next = r.highest + 1
	return rep, true
}

// FuzzTWCCRecorderWindow drives the growing recorder and the fixed one
// through the same calls and requires every report to match field for
// field. data[0] picks the capacity (1 to 2048), data[1:3] the first seq;
// each following 3-byte op is a Record — a small step forward, a late or
// duplicate seq behind the cursor, a jump of up to 4080 seqs, or any
// int16 step, so gaps wider than the capacity and the uint16 wrap both
// occur — an AppendReport into a recycled slice, or a Reset. Plain `go
// test` replays the seeds below: hand-written cases plus 64 random ones.
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
		capacity := 1 << (data[0] % 12)
		got := NewTWCCRecorder(capacity)
		want := &fixedRecorder{slots: make([]twccSlot, capacity)}
		cur := uint16(data[1])<<8 | uint16(data[2])
		var clock int64
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
				want = &fixedRecorder{slots: make([]twccSlot, capacity)}
				continue
			}
			clock += int64(int8(b)) + 100
			got.Record(cur, clock)
			want.record(cur, clock)
		}
		check(len(data) / 3)
	})
}
