package vca

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"vcalab/internal/codec"
	"vcalab/internal/netem"
	"vcalab/internal/race"
	"vcalab/internal/rtp"
	"vcalab/internal/sim"
)

// emissionKey names one packet of one (receiver, origin) sequence space.
type emissionKey struct {
	receiver string
	origin   int32
	seq      uint16
}

// sentPacket is the reference store's clone of one emission.
type sentPacket struct {
	mp   MediaPacket
	size int
}

// asSent strips what legitimately differs between an emission and its
// retransmission: the RTX mark, the transport-wide seq send() stamps
// afresh, and the pool bookkeeping.
func asSent(mp *MediaPacket, size int) sentPacket {
	c := *mp
	c.RTX, c.TWSeq, c.pool, c.refs = false, 0, nil, 0
	return sentPacket{c, size}
}

// TestRetransmissionsMatchAClonePerEmission is the differential test for
// the shared retained packet: a reference store on the SFU's wire clones
// every packet as it is first sent, and every NACK answer, rebuilt from a ring slot and the shared
// ingress packet, must equal the clone filed under the same (receiver,
// origin, seq), field for field. The calls lose 3% of everything the SFU
// sends and go through a Leave, a Rejoin (recycled ID, fresh rings) and a
// mode switch (layout reflow, stream switches, forced keyframes).
func TestRetransmissionsMatchAClonePerEmission(t *testing.T) {
	for _, tc := range []struct {
		prof    *Profile
		parties int
	}{{Meet(), 4}, {Teams(), 4}, {Zoom(), 4}, {Teams(), 2}} { // 2-party Teams: the E2E pass-through relay
		t.Run(fmt.Sprintf("%s-%dp", tc.prof.Name, tc.parties), func(t *testing.T) {
			eng := sim.New(17)
			l := newLab(eng, 0, 0)
			hosts := []*netem.Host{l.clientHost("c1")}
			for i := 2; i <= tc.parties; i++ {
				hosts = append(hosts, l.remoteHost(fmt.Sprintf("c%d", i), 5*time.Millisecond))
			}
			sfu := l.remoteHost("sfu", 15*time.Millisecond)
			call := NewCall(eng, tc.prof, sfu, hosts, CallOptions{Seed: 17, Recovery: true})
			sfu.Uplink().SetImpairment(0.03, 0)

			ref := map[emissionKey]sentPacket{}
			var answered, keyframes, e2e int
			sfu.Uplink().OnSend(func(pkt *netem.Packet) {
				mp, ok := pkt.Payload.(*MediaPacket)
				if !ok || mp.OriginID == call.Servers[0].id {
					return // feedback, signalling, the SFU's own probe padding
				}
				key := emissionKey{pkt.To.Host, mp.OriginID, mp.Seq}
				got := asSent(mp, pkt.Size)
				if !mp.RTX {
					ref[key] = got
					return
				}
				answered++
				want, ok := ref[key]
				if !ok {
					t.Errorf("RTX for %+v, which was never sent", key)
					return
				}
				if got != want {
					t.Errorf("RTX for %+v differs from its first emission:\n got %+v\nwant %+v", key, got, want)
				}
				if got.mp.Keyframe {
					keyframes++
				}
				if got.mp.E2E {
					e2e++
				}
			})

			call.Start()
			eng.RunUntil(8 * time.Second)
			if tc.parties > 2 {
				call.Leave("c3")
				eng.RunUntil(14 * time.Second)
				call.Rejoin("c3")
			}
			eng.RunUntil(18 * time.Second)
			call.SetMode(Speaker)
			eng.RunUntil(25 * time.Second)
			call.Stop()

			_, rtx := call.NackRTXTotals()
			if answered == 0 || uint64(answered) != rtx {
				t.Errorf("compared %d retransmissions, SFU counts %d", answered, rtx)
			}
			if keyframes == 0 {
				t.Error("no retransmitted keyframe packet: the rewritten-header path went unexercised")
			}
			if pass := tc.parties == 2; pass != (e2e > 0) {
				t.Errorf("%d E2E retransmissions, pass-through %v", e2e, pass)
			}

			// Conservation: the rings hold references until drained; then,
			// with the wire empty, every packet is back in the pool.
			eng.Run()
			if call.RTXClonesLive() == 0 || call.MediaPacketsLive(0) == 0 {
				t.Errorf("before drain: %d ring references, %d media packets live; want both > 0",
					call.RTXClonesLive(), call.MediaPacketsLive(0))
			}
			call.DrainRecovery()
			if refs, live, ctrl := call.RTXClonesLive(), call.MediaPacketsLive(0), call.ControlMsgsLive(0); refs != 0 || live != 0 || ctrl != 0 {
				t.Errorf("after drain: %d ring references, %d media packets, %d control messages live; want 0", refs, live, ctrl)
			}
		})
	}
}

// TestSharedPacketOutlivesIngressUntilLastSlot walks one ingress packet
// through the ownership rule by hand: the SFU's hold ends with onMedia,
// each ring slot's with its eviction, and only the last one out files the
// packet back in the pool.
func TestSharedPacketOutlivesIngressUntilLastSlot(t *testing.T) {
	eng := sim.New(1)
	l := newLab(eng, 0, 0)
	hosts := []*netem.Host{l.clientHost("c1"), l.remoteHost("c2", time.Millisecond), l.remoteHost("c3", time.Millisecond)}
	call := NewCall(eng, Teams(), l.remoteHost("sfu", time.Millisecond), hosts, CallOptions{Seed: 1, Recovery: true})
	s, pool := call.Servers[0], call.pools[0]
	s.running = true // ingest without starting the tickers

	audio := func(seq uint16) *MediaPacket {
		mp := pool.get()
		mp.OriginID = call.Clients[0].id
		mp.RK, mp.Audio, mp.Seq = rkAudio, true, seq
		return mp
	}
	first := audio(0)
	s.onMedia(&netem.Packet{Size: 140, Payload: first})
	if first.refs != 2 || call.RTXClonesLive() != 2 {
		t.Fatalf("after fan-out to two legs: refs %d, refsLive %d; want 2 and 2", first.refs, call.RTXClonesLive())
	}
	// The rest of a ring's worth of packets fills both rings; the next
	// evicts the first from both, and only then does it go back.
	for seq := uint16(1); seq < rtxRingPkts; seq++ {
		s.onMedia(&netem.Packet{Size: 140, Payload: audio(seq)})
	}
	if first.refs != 2 {
		t.Fatalf("refs %d with both slots still in their rings, want 2", first.refs)
	}
	free := len(pool.free)
	s.onMedia(&netem.Packet{Size: 140, Payload: audio(rtxRingPkts)})
	if first.refs != 0 || first.Audio {
		t.Errorf("evicted from every ring but not recycled: refs %d, audio %v", first.refs, first.Audio)
	}
	if len(pool.free) != free+1 {
		t.Errorf("pool free list went %d -> %d, want one packet back", free, len(pool.free))
	}
	if n := call.RTXClonesLive(); n != 2*rtxRingPkts {
		t.Errorf("refsLive %d, want %d (two full rings)", n, 2*rtxRingPkts)
	}
	// A NACK for an evicted seq is unanswerable; for a held one the answer
	// is rebuilt from the slot.
	ring := s.legs[call.Clients[1].id].rtx.byOrigin[call.Clients[0].id].ring
	if _, ok := ring.Get(0); ok {
		t.Error("seq 0 still answerable after eviction")
	}
	e, ok := ring.Get(3)
	if !ok || e.size() != 140 {
		t.Fatalf("seq 3 not held: ok %v size %d", ok, e.size())
	}
	out := e.rebuild(pool, call.Clients[0].id)
	if out.Seq != 3 || !out.Audio || out.refs != 0 || out == e.pkt {
		t.Errorf("rebuilt %+v", out)
	}
	releaseMedia(out)
	s.running = false
	eng.Run()
	call.DrainRecovery()
	if refs, live := call.RTXClonesLive(), call.MediaPacketsLive(0); refs != 0 || live != 0 {
		t.Errorf("after drain: %d references, %d packets live", refs, live)
	}
}

// TestMediaPacketSizeClass: a MediaPacket is exactly 64 bytes, one
// size class — the send time (8), FPS and QP (8 each), the pool pointer
// (8), three 4-byte fields (origin ID, refs, frame number), four 2-byte
// ones (width, height and the two sequence numbers), three bytes (SSRC,
// rate key, SVC layer) and eight flags: 63 bytes, padded. It carries no
// origin name: an ID never changes owner, so the registry names the
// origin. One more byte moves it to the 80-byte class, and every pool
// fill, recovery on or off, and every packet an RTX ring keeps alive pays
// for it. An rtxEntry is 16 bytes, and it is the whole RTX ring slot:
// 8 KB a 512-slot ring.
func TestMediaPacketSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(MediaPacket{}); got != 64 {
		t.Errorf("MediaPacket is %d bytes, want 64", got)
	}
	if got := unsafe.Sizeof(rtxEntry{}); got != 16 {
		t.Errorf("rtxEntry is %d bytes, want 16 (the ring slot is the entry)", got)
	}
}

// TestMediaPacketParams: the packed encode parameters read back as they
// went in, FPS and QP bit for bit, and a dimension past 16 bits panics
// rather than wraps.
func TestMediaPacketParams(t *testing.T) {
	var mp MediaPacket
	if _, ok := mp.params(); ok {
		t.Error("a fresh packet has params")
	}
	p := codec.EncodeParams{FPS: 29.97, Width: 65535, Height: 720, QP: math.Nextafter(31, 32)}
	mp.setParams(p)
	if got, ok := mp.params(); !ok || got != p || math.Float64bits(got.QP) != math.Float64bits(p.QP) {
		t.Errorf("params() = %+v, %v; want %+v", got, ok, p)
	}
	if info := mp.Info(100, 0); !info.HasParams || info.Params != p {
		t.Errorf("Info carries %+v, %v; want %+v", info.Params, info.HasParams, p)
	}
	for _, bad := range []codec.EncodeParams{{Width: 65536, Height: 1}, {Width: 1, Height: -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("setParams(%+v) did not panic", bad)
				}
			}()
			mp.setParams(bad)
		}()
	}
}

// TestRingReuseAcrossChurn: a subscriber that leaves stashes its drained
// ring, and its rejoin takes it from the stash instead of making a new
// one. The recycled ring answers only what its new owner filed: a NACK for
// a seq the departed track still held gets nothing, though the new owner's
// forwarder restarts the same seq space and has since filed the first
// seqs of it. The departed track filed more than a ring's worth, so every
// slot was taken when it left. The stash is a sync.Pool, which the race
// detector empties at random: only then may the rejoin make a new ring.
func TestRingReuseAcrossChurn(t *testing.T) {
	eng := sim.New(1)
	l := newLab(eng, 0, 0)
	hosts := []*netem.Host{l.clientHost("c1"), l.remoteHost("c2", time.Millisecond), l.remoteHost("c3", time.Millisecond)}
	call := NewCall(eng, Teams(), l.remoteHost("sfu", time.Millisecond), hosts, CallOptions{Seed: 1, Recovery: true})
	s, pool := call.Servers[0], call.pools[0]
	s.running = true // ingest without starting the tickers
	c1 := call.Clients[0].id
	var next uint16
	ingest := func(n int) {
		for ; n > 0; n-- {
			mp := pool.get()
			mp.OriginID = c1
			mp.RK, mp.Audio, mp.Seq = rkAudio, true, next
			next++
			s.onMedia(&netem.Packet{Size: 140, Payload: mp})
		}
	}
	c3Ring := func() *rtp.RTXRing[rtxEntry] { return s.legs[call.Clients[2].id].rtx.byOrigin[c1].ring }

	ingest(rtxRingPkts + 6) // down-track seqs 0..517 toward c2 and c3; the rings hold 6..517
	old := c3Ring()
	if old.Len() != rtxRingPkts {
		t.Fatalf("before leave: c3's ring holds %d, want %d", old.Len(), rtxRingPkts)
	}
	runtime.GC() // twice empties the stash, so the next ring it hands out is the one c3 leaves
	runtime.GC()
	call.Leave("c3")
	if old.Len() != 0 {
		t.Fatalf("after leave: the stashed ring holds %d", old.Len())
	}
	call.Rejoin("c3")
	eng.Run()
	ingest(2) // the new track's forwarder files seqs 0 and 1
	if got := c3Ring(); got != old && !race.Enabled {
		t.Fatalf("rejoined track made a ring (%p) instead of reusing %p", got, old)
	}
	if n := c3Ring().Len(); n != 2 {
		t.Fatalf("rejoined track's ring holds %d, want the new owner's 2", n)
	}
	track := s.legs[call.Clients[2].id]
	for _, p := range []rtp.NackPair{{PacketID: 2, Bitmask: 0xffff}, {PacketID: rtxRingPkts, Bitmask: 0b11111}} {
		if n := track.answer(eng.Now(), &NackMsg{Origin: c1, Pairs: []rtp.NackPair{p}}); n != 0 {
			t.Errorf("recycled ring answered %d seqs of %+v, which only its departed owner filed", n, p)
		}
	}
	if n := track.answer(eng.Now(), &NackMsg{Origin: c1, Pairs: []rtp.NackPair{{PacketID: 0, Bitmask: 1}}}); n != 2 {
		t.Errorf("recycled ring answered %d of the 2 seqs its new owner filed", n)
	}

	s.running = false
	eng.Run()
	call.DrainRecovery()
	if refs, live := call.RTXClonesLive(), call.MediaPacketsLive(0); refs != 0 || live != 0 {
		t.Errorf("after drain: %d references, %d packets live", refs, live)
	}
}

// TestReleaseStashesClearedState: what Release stashes is byte-for-byte
// new. After a recovery-on Meet call has filed packets in its rings and
// sends in its TWCC histories, Release leaves every ring it held empty,
// every history as NewSentHistory makes one and every region pool with
// nothing counted out; a second Release does nothing.
func TestReleaseStashesClearedState(t *testing.T) {
	eng := sim.New(1)
	l := newLab(eng, 0, 0)
	hosts := []*netem.Host{l.clientHost("c1"), l.remoteHost("c2", 5*time.Millisecond), l.remoteHost("c3", 5*time.Millisecond)}
	call := NewCall(eng, Meet(), l.remoteHost("sfu", 5*time.Millisecond), hosts, CallOptions{Seed: 1, Recovery: true})
	call.Start()
	eng.RunUntil(5 * time.Second)
	call.Stop()

	var rings []*rtp.RTXRing[rtxEntry]
	var hists []*rtp.SentHistory
	call.Server.eachRTX(func(r *retransmitter) {
		for _, o := range r.byOrigin {
			if o.ring != nil && o.ring.Len() > 0 {
				rings = append(rings, o.ring)
			}
		}
		if _, _, ok := r.twHist.Lookup(r.twSeq); ok {
			hists = append(hists, r.twHist)
		}
	})
	pool := call.pools[0]
	if len(rings) == 0 || len(hists) == 0 || pool.mediaLive() == 0 {
		t.Fatalf("nothing to release: %d filled rings, %d filled histories, %d packets out", len(rings), len(hists), pool.mediaLive())
	}
	call.Release()
	call.Release()
	for i, r := range rings {
		if n := r.Len(); n != 0 {
			t.Errorf("ring %d stashed holding %d packets", i, n)
		}
	}
	for i, h := range hists {
		if !reflect.DeepEqual(h, rtp.NewSentHistory(2048)) {
			t.Errorf("history %d stashed with sends in it", i)
		}
	}
	if pool.mediaLive() != 0 || pool.ctrlLive != 0 {
		t.Errorf("pool stashed with %d packets and %d messages counted out", pool.mediaLive(), pool.ctrlLive)
	}
}
