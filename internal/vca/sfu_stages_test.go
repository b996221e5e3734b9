package vca

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"vcalab/internal/netem"
	"vcalab/internal/rtp"
	"vcalab/internal/sim"
)

// origin is a hand-built receiver whose rate estimates are what a control
// tick would have measured: no engine, no packets.
func origin(via int32, rates map[int]float64) *receiver {
	r := newOrigin(Zoom(), via) // Zoom's rate row is the widest
	for k, bps := range rates {
		r.rates[k].rate = bps
	}
	return r
}

// TestRateEstimateMatchesSentRate: the SFU's per-origin rate estimate
// divides what one control tick collected by the report interval, so for a
// constant-rate stream — audio on unshaped links — it reads the rate the
// origin sends. A control tick whose period and the estimator's divisor
// disagree reads a multiple of it.
func TestRateEstimateMatchesSentRate(t *testing.T) {
	eng := sim.New(3)
	l := newLab(eng, 0, 0)
	hosts := []*netem.Host{l.clientHost("c1"), l.remoteHost("c2", 5*time.Millisecond)}
	call := NewCall(eng, Meet(), l.remoteHost("sfu", 15*time.Millisecond), hosts, CallOptions{Seed: 3})
	call.Start()
	eng.RunUntil(5 * time.Second)
	want := float64(audioPacketsPerSec * (audioPayloadBytes + wireOverhead) * 8)
	for _, c := range call.Clients {
		got := call.Servers[0].recv[c.id].rate(int(rkAudio))
		if math.Abs(got-want) > 1e-6*want {
			t.Errorf("SFU's estimate of %s's audio = %.0f bps, want the %.0f bps it sends", c.Name, got, want)
		}
	}
}

// TestForwarderSelection drives the layer machine alone, per VCA, through
// every zone of its selection rule.
func TestForwarderSelection(t *testing.T) {
	const (
		high, low = int(rkSimHigh), int(rkSimLow)
		svc       = int(rkSVC)
	)
	meetSrc := map[int]float64{high: 1_000_000, low: 190_000}
	// Zoom at 0.18 FEC: cumulative FEC-inclusive rates 236k, 413k, 590k.
	zoomSrc := map[int]float64{svc: 200_000, svc + 1: 150_000, svc + 2: 150_000}
	// single is a profile flipped to one stream, relaying with Teams' thinning.
	single := func(p *Profile) *Profile {
		p.MediaMode, p.ForwardFactor = ModeSingle, Teams().ForwardFactor
		return p
	}
	for _, tc := range []struct {
		name    string
		prof    *Profile
		running bool // forwarder built in a running call (low copy / base layer)
		via     int32
		rates   map[int]float64
		share   float64
		n       int

		selRK    uint8
		maxLayer int
		thin     float64
		switched bool
	}{
		// Meet, thinZoneHigh 1.00, thinZoneLow 0.82.
		{name: "meet share covers the high copy", prof: Meet(), via: noID, rates: meetSrc, share: 1_000_000,
			selRK: rkSimHigh, maxLayer: allLayers, thin: 1},
		{name: "meet thinning zone keeps the high copy at share/high", prof: Meet(), via: noID, rates: meetSrc, share: 900_000,
			selRK: rkSimHigh, maxLayer: allLayers, thin: 0.9},
		{name: "meet below the zone switches to the low copy", prof: Meet(), via: noID, rates: meetSrc, share: 500_000,
			selRK: rkSimLow, maxLayer: allLayers, thin: 1, switched: true},
		{name: "meet low copy above the share is thinned", prof: Meet(), via: noID, rates: meetSrc, share: 95_000,
			selRK: rkSimLow, maxLayer: allLayers, thin: 0.5, switched: true},
		{name: "meet low-copy thinning floors at 0.4", prof: Meet(), via: noID, rates: meetSrc, share: 19_000,
			selRK: rkSimLow, maxLayer: allLayers, thin: 0.4, switched: true},
		{name: "meet upgrade from the low copy", prof: Meet(), running: true, via: noID, rates: meetSrc, share: 2_000_000,
			selRK: rkSimHigh, maxLayer: 0, thin: 1, switched: true},
		{name: "meet high copy not flowing", prof: Meet(), via: noID, rates: map[int]float64{high: 10_000, low: 190_000}, share: 2_000_000,
			selRK: rkSimLow, maxLayer: allLayers, thin: 1, switched: true},
		{name: "meet cascade: the low copy never arrives", prof: Meet(), via: 7, rates: map[int]float64{high: 1_000_000}, share: 500_000,
			selRK: rkSimHigh, maxLayer: allLayers, thin: 0.5},
		{name: "meet cascade fallback floors at 0.35", prof: Meet(), via: 7, rates: map[int]float64{high: 1_000_000}, share: 100_000,
			selRK: rkSimHigh, maxLayer: allLayers, thin: 0.35},
		{name: "meet local origin without a low copy still switches", prof: Meet(), via: noID, rates: map[int]float64{high: 1_000_000}, share: 500_000,
			selRK: rkSimLow, maxLayer: allLayers, thin: 1, switched: true},

		{name: "zoom every layer fits", prof: Zoom(), via: noID, rates: zoomSrc, share: 591_000,
			selRK: rkSimHigh, maxLayer: 2, thin: 1, switched: true},
		{name: "zoom top layer just short", prof: Zoom(), via: noID, rates: zoomSrc, share: 589_000,
			selRK: rkSimHigh, maxLayer: 1, thin: 1, switched: true},
		{name: "zoom FEC counts against the fit", prof: Zoom(), via: noID, rates: zoomSrc, share: 400_000,
			selRK: rkSimHigh, maxLayer: 0, thin: 1, switched: true},
		{name: "zoom base layer above the share is thinned", prof: Zoom(), via: noID, rates: zoomSrc, share: 118_000,
			selRK: rkSimHigh, maxLayer: 0, thin: 0.5, switched: true},
		{name: "zoom thinning floors at 0.35", prof: Zoom(), via: noID, rates: zoomSrc, share: 10_000,
			selRK: rkSimHigh, maxLayer: 0, thin: 0.35, switched: true},
		{name: "zoom unmeasured upper layer is forwarded on credit", prof: Zoom(), running: true, via: noID, rates: map[int]float64{svc: 200_000, svc + 2: 150_000}, share: 300_000,
			selRK: rkSimLow, maxLayer: 1, thin: 1, switched: true},
		{name: "zoom no base rate keeps forward-everything", prof: Zoom(), via: noID, share: 10_000,
			selRK: rkSimHigh, maxLayer: allLayers, thin: 1},
		{name: "zoom no base rate keeps base-only", prof: Zoom(), running: true, via: noID, share: 10_000_000,
			selRK: rkSimLow, maxLayer: 0, thin: 1},

		{name: "teams 2-party forwards everything", prof: Teams(), via: noID, n: 2,
			selRK: rkSimHigh, maxLayer: allLayers, thin: 1},
		{name: "teams thins by call size", prof: Teams(), via: noID, n: 5,
			selRK: rkSimHigh, maxLayer: allLayers, thin: Teams().ForwardFactor(5)},
		{name: "teams thins large calls harder", prof: Teams(), via: noID, n: 12,
			selRK: rkSimHigh, maxLayer: allLayers, thin: Teams().ForwardFactor(12)},

		// One stream on a simulcast or SVC profile: whatever the share and
		// the measured rates, nothing is selected, frames thin by call size.
		{name: "meet single stream selects no copy", prof: single(Meet()), via: noID, rates: meetSrc, share: 19_000, n: 5,
			selRK: rkSimHigh, maxLayer: allLayers, thin: Teams().ForwardFactor(5)},
		{name: "zoom single stream selects no layer", prof: single(Zoom()), running: true, via: noID, rates: zoomSrc, share: 10_000, n: 5,
			selRK: rkSimLow, maxLayer: 0, thin: Teams().ForwardFactor(5)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newForwarder(tc.prof, tc.running)
			was := [2]int{int(f.selRK), f.maxLayer}
			from, to, switched := f.sel(tc.share, origin(tc.via, tc.rates), tc.n)
			if f.selRK != tc.selRK || f.maxLayer != tc.maxLayer || math.Abs(f.thinFactor-tc.thin) > 1e-9 {
				t.Errorf("selected copy %d, max layer %d, thin %.4f; want %d, %d, %.4f",
					f.selRK, f.maxLayer, f.thinFactor, tc.selRK, tc.maxLayer, tc.thin)
			}
			if switched != tc.switched {
				t.Fatalf("switched %v, want %v", switched, tc.switched)
			}
			if tc.prof.MediaMode == ModeSingle && !f.forward(&MediaPacket{RK: rkVideo, Layer: 1, Keyframe: true}) {
				t.Error("the one stream is filtered by a selection that does not apply to it")
			}
			if !switched {
				return
			}
			i := 0 // which of (copy, layer) the profile switches
			if tc.prof.MediaMode == ModeSVC {
				i = 1
			}
			if is := [2]int{int(f.selRK), f.maxLayer}; from != was[i] || to != is[i] {
				t.Errorf("reported %d -> %d, want %d -> %d", from, to, was[i], is[i])
			}
			if want := tc.prof.MediaMode == ModeSimulcast; f.needKey != want {
				t.Errorf("needKey %v after a switch, want %v (a copy switch owes the receiver a keyframe)", f.needKey, want)
			}
		})
	}
}

// TestForwarderThinsAndRenumbers: the frame filter with no SFU around it.
// At thin factor 0.5 every other delta frame survives, keyframes always
// do, all packets of a frame share its fate, and survivors are renumbered
// without gaps.
func TestForwarderThinsAndRenumbers(t *testing.T) {
	f := newForwarder(Teams(), false)
	f.thinFactor = 0.5
	var kept []int
	for frame := 0; frame < 9; frame++ {
		mp := &MediaPacket{RK: rkVideo, FrameSeq: int32(frame), Keyframe: frame == 0 || frame == 6}
		first, second := f.forward(mp), f.forward(mp)
		if first != second {
			t.Fatalf("frame %d: packets of one frame split (%v, %v)", frame, first, second)
		}
		if first {
			out := *mp
			f.rewrite(&out, mp)
			if int(out.FrameSeq) != len(kept)+1 {
				t.Errorf("frame %d renumbered %d, want %d", frame, out.FrameSeq, len(kept)+1)
			}
			kept = append(kept, frame)
		}
	}
	if want := []int{0, 2, 4, 6, 8}; !slices.Equal(kept, want) {
		t.Fatalf("kept frames %v, want %v", kept, want)
	}
	if !f.forward(&MediaPacket{Audio: true}) {
		t.Error("audio dropped by the frame filter")
	}
}

// trackToSink builds one Zoom down-track by hand — no Server, no Call — on
// a host whose uplink delivers straight to the subscriber, and returns what
// the subscriber received so far as values.
func trackToSink(t *testing.T) (*sim.Engine, *downTrack, *[]sentPacket) {
	t.Helper()
	eng := sim.New(1)
	var wire []sentPacket
	sub := netem.NewHost(eng, "c2")
	sub.HandleFunc(PortMedia, func(pkt *netem.Packet) {
		mp := pkt.Payload.(*MediaPacket)
		got := asSent(mp, pkt.Size)
		got.mp.RTX = mp.RTX
		wire = append(wire, got)
		releaseMedia(mp)
	})
	host := netem.NewHost(eng, "sfu")
	host.SetUplink(netem.NewLink(eng, "sfu-c2", netem.LinkConfig{Delay: time.Millisecond}, sub))
	prof, reg := Zoom(), newRegistry()
	reg.intern("c1", false) // the origin, ID 0
	reg.intern("c2", false)
	l := &downTrack{
		receiver: 1, recvName: "c2", prof: prof, host: host, pool: &mpPool{},
		fwd: make([]*forwarder, 2), flows: &flowLabels{prefix: "zoom/sfu/", reg: reg, rows: make([][]string, 2)},
		rtx: newRetransmitter(2, false),
	}
	l.fwd[0] = newForwarder(prof, false)
	return eng, l, &wire
}

// TestDownTrackAnswersNackWithItsOwnRewrite: a NACK for a stored seq is
// re-sent with exactly the header fields this down-track rewrote on first
// emission — its own seq space and frame numbering, the keyframe a stream
// switch owed, the frame-end of a layer-stripped frame — an evicted seq is
// not answered, and tearing the track down returns every retained packet.
func TestDownTrackAnswersNackWithItsOwnRewrite(t *testing.T) {
	eng, l, wire := trackToSink(t)
	f := l.fwd[0]
	f.maxLayer, f.needKey = 1, true // strip layer 2; owe a keyframe
	f.seq, f.frameOut = 100, 40     // well into the call

	// One delta frame of three layers, one packet each, as the origin sent
	// it: only the top layer's packet ends the frame.
	ingress := func(seq uint16, layer uint8) {
		mp := l.pool.get()
		mp.OriginID, mp.RK = 0, rkSVC
		mp.Seq, mp.FrameSeq, mp.Layer = seq, 7, layer
		mp.LayerEnd, mp.FrameEnd = true, layer == 2
		mp.retain()
		l.write(eng.Now(), mp, 500)
		unref(mp)
	}
	ingress(9, 0)
	ingress(10, 1)
	ingress(11, 2)
	eng.Run()
	// Layers 0 and 1 went out, plus the FEC the 1000 video bytes owed
	// (none yet at 0.18: 180 < 600).
	if len(*wire) != 2 {
		t.Fatalf("%d packets on the wire, want 2 (layer 2 stripped)", len(*wire))
	}
	first := (*wire)[1].mp
	if first.Seq != 101 || first.FrameSeq != 41 || !first.FrameEnd || first.Keyframe {
		t.Fatalf("layer-1 packet went out as %+v; want seq 101, frame 41, frame end rewritten on, no keyframe mark (layer 0 took it)", first)
	}
	if !(*wire)[0].mp.Keyframe {
		t.Fatal("the owed keyframe mark is missing from the frame's first packet")
	}

	// NACK both: each answer equals its first emission, RTX mark aside.
	if n := l.answer(eng.Now(), &NackMsg{Origin: 0, Pairs: []rtp.NackPair{{PacketID: 100, Bitmask: 1}}}); n != 2 {
		t.Fatalf("answered %d of 2 stored seqs", n)
	}
	eng.Run()
	for i, got := range (*wire)[2:] {
		want := (*wire)[i]
		if !got.mp.RTX {
			t.Errorf("answer %d is not marked RTX", i)
		}
		got.mp.RTX = false
		if got != want {
			t.Errorf("answer %d differs from its first emission:\n got %+v\nwant %+v", i, got, want)
		}
	}

	// A ring's worth of emissions, each its own frame, evicts seq 100 and
	// 101.
	for i := 0; i < rtxRingPkts; i++ {
		f.curInFrame = -1
		ingress(uint16(20+i), 0)
	}
	eng.Run()
	sent := len(*wire)
	if n := l.answer(eng.Now(), &NackMsg{Origin: 0, Pairs: []rtp.NackPair{{PacketID: 100, Bitmask: 1}}}); n != 0 {
		t.Errorf("answered %d evicted seqs", n)
	}
	eng.Run()
	if len(*wire) != sent {
		t.Errorf("%d packets sent for evicted seqs", len(*wire)-sent)
	}
	if c := l.rtx.byOrigin[0].rtxCount; c != (rtxCount{nacks: 4, rtx: 2}) {
		t.Errorf("counters %+v, want 4 NACKed seqs, 2 answered", c)
	}

	// Teardown: the ring's references, one per media slot (an FEC slot
	// holds none), and with them the packets.
	held := uint64(0)
	for seq := f.seq - rtxRingPkts; seq != f.seq; seq++ {
		if e, ok := l.rtx.byOrigin[0].ring.Get(seq); ok && e.pkt != nil {
			held++
		}
	}
	if held == 0 || l.rtx.refsLive != held || uint64(l.pool.mediaLive()) != held {
		t.Fatalf("before teardown: %d references, %d packets out of the pool; want %d media slots' worth of each", l.rtx.refsLive, l.pool.mediaLive(), held)
	}
	tally := make([]rtxCount, 2)
	l.rtx.retire(tally)
	if l.rtx.refsLive != 0 || l.pool.mediaLive() != 0 {
		t.Errorf("after teardown: %d references, %d packets out of the pool", l.rtx.refsLive, l.pool.mediaLive())
	}
	if tally[0] != (rtxCount{nacks: 4, rtx: 2}) {
		t.Errorf("retired tally %+v", tally[0])
	}
}

// TestFlowLabelsOnePerServer: a media label names no subscriber, so every
// down-track of one kind on a server shares one string per (origin,
// stream); a relay track's labels say relay; and a Leave clears the
// departed ID's row, so a recycled ID never sends under the old name.
func TestFlowLabelsOnePerServer(t *testing.T) {
	eng := sim.New(5)
	l := newLab(eng, 0, 0)
	hosts := []*netem.Host{l.clientHost("c1"), l.remoteHost("c2", 5*time.Millisecond), l.remoteHost("c3", 5*time.Millisecond)}
	sfu := l.remoteHost("sfu", 15*time.Millisecond)
	call := NewCall(eng, Meet(), sfu, hosts, CallOptions{Seed: 5})
	c1 := call.C1().id
	type copyKey struct {
		to string
		rk uint8
	}
	labels := map[copyKey]string{}
	sfu.Uplink().OnSend(func(pkt *netem.Packet) {
		if mp, ok := pkt.Payload.(*MediaPacket); ok && mp.OriginID == c1 && !mp.Audio && !mp.Padding {
			labels[copyKey{pkt.To.Host, mp.RK}] = pkt.Flow
		}
	})
	call.Start()
	eng.RunUntil(3 * time.Second)
	shared := 0
	for k, a := range labels {
		b, ok := labels[copyKey{"c3", k.rk}]
		if k.to != "c2" || !ok {
			continue
		}
		shared++
		if want := "meet/sfu/c1/" + streamName(k.rk); a != want || b != want {
			t.Errorf("c1's %s copies labelled %q and %q, want %q", streamName(k.rk), a, b, want)
		}
		if unsafe.StringData(a) != unsafe.StringData(b) {
			t.Errorf("c2's and c3's copies of c1's %s carry separately built labels", streamName(k.rk))
		}
	}
	if shared == 0 {
		t.Fatalf("c2 and c3 got no copy of the same c1 video stream: %v", labels)
	}

	s := call.Servers[0]
	c2 := call.clientByName("c2").id
	if s.flows.rows[c2] == nil {
		t.Fatal("no labels cached for c2's media before it left")
	}
	call.Leave("c2")
	call.Rejoin("c2")
	if got := call.clientByName("c2").id; got != c2 || s.flows.rows[c2] != nil {
		t.Errorf("rejoined c2 (ID %d, was %d) finds labels %q cached under its ID", got, c2, s.flows.rows[c2])
	}
	call.Stop()

	eng = sim.New(5)
	cascade, _ := miniCascade(eng, Meet(), 5)
	var relayed []string
	cascade.Servers[0].host.Uplink().OnSend(func(pkt *netem.Packet) {
		if mp, ok := pkt.Payload.(*MediaPacket); ok && pkt.To.Host == "sfu-b" && mp.OriginID == cascade.C1().id {
			relayed = append(relayed, pkt.Flow)
		}
	})
	cascade.Start()
	eng.RunUntil(time.Second)
	cascade.Stop()
	if len(relayed) == 0 {
		t.Fatal("no c1 media crossed the relay track")
	}
	for _, f := range relayed {
		if !strings.HasPrefix(f, "meet/relay/c1/") {
			t.Fatalf("relay track labels c1's media %q, want meet/relay/c1/...", f)
		}
	}
}
