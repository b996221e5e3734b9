package vca

import (
	"slices"
	"testing"
	"time"

	"vcalab/internal/media"
	"vcalab/internal/netem"
	"vcalab/internal/sim"
)

// twoPartyRecovery builds the standard 2-party call with recovery
// toggled, so on/off runs share topology and seed.
func twoPartyRecovery(eng *sim.Engine, prof *Profile, upBps, downBps float64, recovery bool) (*Call, *lab) {
	l := newLab(eng, upBps, downBps)
	c1 := l.clientHost("c1")
	c2 := l.remoteHost("c2", 5*time.Millisecond)
	sfu := l.remoteHost("sfu", 15*time.Millisecond)
	call := NewCall(eng, prof, sfu, []*netem.Host{c1, c2}, CallOptions{Seed: 42, Recovery: recovery})
	return call, l
}

// runLossy runs a 2-party call with random downlink loss and returns
// C1's freeze time toward c2 plus the stopped call for inspection.
func runLossy(prof *Profile, lossPct float64, recovery bool) (time.Duration, *Call) {
	eng := sim.New(7)
	call, l := twoPartyRecovery(eng, prof, 0, 0, recovery)
	l.down.SetImpairment(lossPct/100, 0)
	call.Start()
	eng.RunUntil(60 * time.Second)
	call.Stop()
	return call.C1().Receiver("c2").FreezeTime(), call
}

func TestRecoveryReducesFreezeUnderLoss(t *testing.T) {
	for _, prof := range []*Profile{Meet(), Teams()} {
		off, _ := runLossy(prof, 3, false)
		on, call := runLossy(prof, 3, true)
		if on >= off {
			t.Errorf("%s: recovery-on freeze %v, want < recovery-off %v", prof.Name, on, off)
		}
		nacks, rtx := call.NackRTXTotals()
		if nacks == 0 || rtx == 0 {
			t.Errorf("%s: recovery loop idle under 3%% loss: nacks=%d rtx=%d", prof.Name, nacks, rtx)
		}
		if nacks < rtx {
			t.Errorf("%s: answered more RTX (%d) than seqs NACKed (%d)", prof.Name, rtx, nacks)
		}
		rs := call.C1().track(call.Clients[1].id).jb.stats()
		if rs.RTXReceived == 0 {
			t.Errorf("%s: c1 received no retransmissions", prof.Name)
		}
		// Conservation: stop flushed the queues; drain frees every clone.
		if n := call.PendingNacks(); n != 0 {
			t.Errorf("%s: %d NACKs pending after Stop", prof.Name, n)
		}
		call.DrainRecovery()
		if n := call.RTXClonesLive(); n != 0 {
			t.Errorf("%s: %d RTX clones leaked after DrainRecovery", prof.Name, n)
		}
	}
}

func TestRecoveryLossless(t *testing.T) {
	// No loss: the NACK machinery must stay quiet and the call healthy.
	eng := sim.New(11)
	call, _ := twoPartyRecovery(eng, Meet(), 0, 0, true)
	call.Start()
	eng.RunUntil(30 * time.Second)
	call.Stop()
	nacks, rtx := call.NackRTXTotals()
	if nacks != 0 || rtx != 0 {
		t.Errorf("lossless run sent NACKs: nacks=%d rtx=%d", nacks, rtx)
	}
	if down := call.C1().DownMeter.MeanRateMbps(15*time.Second, 30*time.Second); down < 0.3 {
		t.Errorf("recovery-on lossless downlink dead: %.2f Mbps (TWCC not driving CC?)", down)
	}
	call.DrainRecovery()
	if n := call.RTXClonesLive(); n != 0 {
		t.Errorf("%d RTX clones leaked", n)
	}
}

func TestRecoveryChurnConservation(t *testing.T) {
	// Leave/rejoin under loss must drain every per-leg RTX buffer it
	// tears down and never leak jitter-buffer state onto recycled IDs.
	eng := sim.New(13)
	l := newLab(eng, 0, 0)
	hosts := []*netem.Host{l.clientHost("c1"), l.remoteHost("c2", 5*time.Millisecond), l.remoteHost("c3", 8*time.Millisecond)}
	sfu := l.remoteHost("sfu", 15*time.Millisecond)
	call := NewCall(eng, Meet(), sfu, hosts, CallOptions{Seed: 9, Recovery: true})
	l.down.SetImpairment(0.04, 0)
	call.Start()
	eng.RunUntil(10 * time.Second)
	call.Leave("c2")
	eng.RunUntil(20 * time.Second)
	call.Rejoin("c2")
	eng.RunUntil(30 * time.Second)
	call.Stop()
	if n := call.PendingNacks(); n != 0 {
		t.Errorf("%d NACKs pending after Stop", n)
	}
	call.DrainRecovery()
	if n := call.RTXClonesLive(); n != 0 {
		t.Errorf("%d RTX clones leaked across churn", n)
	}
}

func TestRecoveryDeterministic(t *testing.T) {
	// Same seed, same topology: the recovery loop must reproduce its
	// counters and freeze accounting exactly.
	type digest struct {
		freeze     time.Duration
		nacks, rtx uint64
	}
	run := func() digest {
		freeze, call := runLossy(Meet(), 5, true)
		n, r := call.NackRTXTotals()
		return digest{freeze, n, r}
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("recovery run not deterministic: %+v vs %+v", a, b)
	}
	if a.nacks == 0 {
		t.Errorf("no NACKs at 5%% loss")
	}
}

// TestJitterBufferSingleCharge is the freeze-accounting asymmetry
// regression test: a seq conceded past its playout deadline is charged
// as lost exactly once — a late straggler (or late RTX) arriving after
// concession must be swallowed by the buffer, never delivered to the
// media receiver as a second copy of the same seq.
func TestJitterBufferSingleCharge(t *testing.T) {
	b := newJitterBuffer()
	var got seqRecorder
	rtt := 40 * time.Millisecond
	now := time.Second
	step := 10 * time.Millisecond
	// In-order warmup, then a gap at seq 2.
	b.onPacket(now, &MediaPacket{Seq: 0}, 100, now-step, rtt, &got)
	b.onPacket(now+step, &MediaPacket{Seq: 1}, 100, now, rtt, &got)
	if b.slots != nil {
		t.Errorf("in-order arrivals allocated the %d-slot reorder window", len(b.slots))
	}
	b.onPacket(now+2*step, &MediaPacket{Seq: 3}, 100, now+step, rtt, &got)
	if b.q.Len() != 1 {
		t.Fatalf("gap not tracked: queue len %d, want 1", b.q.Len())
	}
	if len(b.slots) != jbWindowPkts {
		t.Errorf("reorder window has %d slots after an out-of-order arrival, want %d", len(b.slots), jbWindowPkts)
	}
	// Tick far past the playout deadline: seq 2 is conceded and the
	// buffered seq 3 flushes through.
	var gaveUp, conceded int
	b.tick(now+playoutMax+time.Second, 20*time.Millisecond, &got,
		func(uint16) {}, func(uint16) { gaveUp++ }, func(n int) { conceded += n })
	if conceded != 1 {
		t.Fatalf("conceded %d seqs, want 1", conceded)
	}
	want := []uint16{0, 1, 3}
	if !slices.Equal(got.seqs, want) {
		t.Fatalf("delivered %v, want %v", got.seqs, want)
	}
	// The straggler: seq 2 finally arrives. It must be dropped, not
	// delivered — its loss was already charged at concession.
	late := now + playoutMax + 2*time.Second
	if ok := b.onPacket(late, &MediaPacket{Seq: 2, RTX: true}, 100, now+step, rtt, &got); ok {
		t.Errorf("late straggler for conceded seq 2 was accepted")
	}
	if !slices.Equal(got.seqs, want) {
		t.Errorf("straggler reached the receiver: delivered %v", got.seqs)
	}
	if b.lateDropped != 1 {
		t.Errorf("lateDropped = %d, want 1", b.lateDropped)
	}
	// Delivery resumes cleanly after the drop.
	if ok := b.onPacket(late+step, &MediaPacket{Seq: 4}, 100, late, rtt, &got); !ok {
		t.Errorf("in-order seq 4 rejected after straggler drop")
	}
	if got.seqs[len(got.seqs)-1] != 4 {
		t.Errorf("seq 4 not delivered: %v", got.seqs)
	}
}

// seqRecorder is a packetSink that remembers the order of delivery.
type seqRecorder struct{ seqs []uint16 }

func (r *seqRecorder) OnPacket(_ time.Duration, p media.PacketInfo) {
	r.seqs = append(r.seqs, p.Seq)
}

// TestFlushAllDeliversNow: stopping a client expires every playout
// deadline by ticking its tracks' buffers far in the future, but the
// stragglers that releases must reach the media receiver at the stop time —
// a receiver fed an hour ahead books the hour as a freeze.
func TestFlushAllDeliversNow(t *testing.T) {
	tr := &inbound{recv: media.NewReceiver(), jb: newJitterBuffer()}
	// One-packet frames a frame interval apart, so the receiver has a frame
	// duration to measure the flush against: its freeze threshold is
	// max(3δ, δ+150 ms) = 183 ms once 0 and 1 are displayed, and a straggler
	// delivered any later than that after frame 1 is a freeze. 0 and 3 are
	// keyframes, 1 and 4 deltas: 4 decodes only if it is delivered after 3.
	now, step := time.Second, 33*time.Millisecond
	for _, seq := range []uint16{0, 1, 3, 4} { // 2 is missing: 3 and 4 wait
		mp := &MediaPacket{Seq: seq, FrameSeq: int32(seq), FrameEnd: true, Keyframe: seq == 0 || seq == 3}
		tr.onPacket(now, mp, 100, now, 0)
		now += step
	}
	if n := tr.recv.DisplayedFrames(); n != 2 {
		t.Fatalf("%d frames displayed before the flush, want 2 (3 and 4 buffered behind the gap)", n)
	}
	tr.flush(now + 50*time.Millisecond) // 149 ms after frame 1 was displayed
	if n := tr.recv.DisplayedFrames(); n != 4 {
		t.Fatalf("%d frames displayed after the flush, want 4 (delivered in order 0 1 3 4)", n)
	}
	if f := tr.recv.FreezeTime(); f != 0 {
		t.Errorf("flush booked a %v freeze: stragglers were not delivered at the stop time", f)
	}
	if n := tr.jb.q.Len(); n != 0 {
		t.Errorf("%d NACKs pending after flush", n)
	}
}

// TestInboundTrack drives one origin's receive track with no client around
// it, built each way Client.track builds it. Every packet is a one-packet
// delta frame after a keyframe, so what the receiver displays says in what
// order it was fed: a frame that arrives before its predecessor breaks the
// reference chain and nothing after it decodes. Without a buffer every
// arrival reaches the receiver as it came; with one a reorder is healed, a
// gap is NACKed, and a straggler arriving after its seq was conceded is
// dropped — the receiver charged that loss once already.
func TestInboundTrack(t *testing.T) {
	for _, tc := range []struct {
		name     string
		buffered bool

		displayed   int      // frames decoded from the arrivals below
		nacked      []uint16 // seqs the first recovery tick asks for
		stragglerOK bool     // the late seq 5 is accepted
		bytes       int64    // what reached the receiver, at 100 B a packet
		stats       RecoveryReceiverStats
	}{
		// 0 1 3: frame 3 skips 2 and breaks the chain for good.
		{name: "no buffer: arrival order", displayed: 2, stragglerOK: true, bytes: 800},
		// 0 1 2 3 4 decode; 5 is NACKed, conceded, and dropped when it
		// shows up; 6 and 7 are delivered behind the hole.
		{name: "buffer: reorder healed, gap NACKed, straggler dropped", buffered: true,
			displayed: 5, nacked: []uint16{5}, bytes: 700,
			// 3 waited 10 ms for 2; 6 and 7 waited 420 and 410 ms for 5.
			stats: RecoveryReceiverStats{NackCount: 1, RTXReceived: 1, Conceded: 1, LateDropped: 1, JitterBufferTime: 840 * time.Millisecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := &inbound{recv: media.NewReceiver()}
			if tc.buffered {
				tr.jb = newJitterBuffer()
			}
			now, step, rtt := time.Second, 10*time.Millisecond, 40*time.Millisecond
			for _, seq := range []uint16{0, 1, 3, 2, 4, 6, 7} {
				mp := &MediaPacket{Seq: seq, FrameSeq: int32(seq), FrameEnd: true, Keyframe: seq == 0}
				if !tr.onPacket(now, mp, 100, now-step, rtt) {
					t.Fatalf("seq %d rejected", seq)
				}
				now += step
			}
			if tc.buffered {
				var nacked []uint16
				note := func(seq uint16) { nacked = append(nacked, seq) }
				tr.jb.tick(now, rtt, tr.recv, note, func(uint16) {}, func(int) {})
				if !slices.Equal(nacked, tc.nacked) {
					t.Errorf("NACKed %v, want %v", nacked, tc.nacked)
				}
				// Past the playout deadline the hole is conceded.
				now += playoutMax
				tr.jb.tick(now, rtt, tr.recv, note, func(uint16) {}, func(int) {})
			}
			straggler := &MediaPacket{Seq: 5, FrameSeq: 5, FrameEnd: true, RTX: tc.buffered}
			if ok := tr.onPacket(now+step, straggler, 100, now, rtt); ok != tc.stragglerOK {
				t.Errorf("late seq 5 accepted = %v, want %v", ok, tc.stragglerOK)
			}
			if n := tr.recv.DisplayedFrames(); n != tc.displayed {
				t.Errorf("%d frames displayed, want %d", n, tc.displayed)
			}
			if tr.recv.TotalBytes != tc.bytes {
				t.Errorf("%d bytes reached the receiver, want %d", tr.recv.TotalBytes, tc.bytes)
			}
			if got := tr.jb.stats(); got != tc.stats {
				t.Errorf("counters %+v, want %+v", got, tc.stats)
			}
			if pkts, _ := tr.jb.takeInterval(); tc.buffered != (pkts == 1) {
				t.Errorf("%d retransmissions to discount from the next report", pkts)
			}
		})
	}
}

// TestJitterBufferCatastrophicGap pins the partition semantics: a gap
// wider than the buffer delivers what is buffered, concedes the holes,
// and re-bases — it must not NACK thousands of seqs.
func TestJitterBufferCatastrophicGap(t *testing.T) {
	b := newJitterBuffer()
	var got seqRecorder
	now := time.Second
	rtt := 40 * time.Millisecond
	for _, seq := range []uint16{10, 12, 1000} { // gap at 11, then the partition
		b.onPacket(now, &MediaPacket{Seq: seq}, 100, now, rtt, &got)
	}
	if b.q.Len() != 0 {
		t.Errorf("queue not reset after catastrophic gap: len %d", b.q.Len())
	}
	if want := []uint16{10, 12, 1000}; !slices.Equal(got.seqs, want) {
		t.Fatalf("delivered %v, want %v", got.seqs, want)
	}
	// In-order flow continues from the new base.
	b.onPacket(now, &MediaPacket{Seq: 1001}, 100, now, rtt, &got)
	if got.seqs[len(got.seqs)-1] != 1001 {
		t.Errorf("post-reset in-order packet not delivered: %v", got.seqs)
	}
}

// TestJitterBufferCatastrophicGapBeforeAnyReorder: a partition-sized jump
// on a stream that never reordered must re-base without the window.
func TestJitterBufferCatastrophicGapBeforeAnyReorder(t *testing.T) {
	b := newJitterBuffer()
	var got seqRecorder
	for _, seq := range []uint16{10, 11, 5000, 5001} {
		b.onPacket(time.Second, &MediaPacket{Seq: seq}, 100, time.Second, 0, &got)
	}
	if want := []uint16{10, 11, 5000, 5001}; !slices.Equal(got.seqs, want) {
		t.Fatalf("delivered %v, want %v", got.seqs, want)
	}
	if b.slots != nil || b.q.Len() != 0 || b.conceded != 0 {
		t.Errorf("window %d slots, %d NACKs pending, %d conceded; want none of each", len(b.slots), b.q.Len(), b.conceded)
	}
}
