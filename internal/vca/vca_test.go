package vca

import (
	"math"
	"reflect"
	"testing"
	"time"

	"vcalab/internal/netem"
	"vcalab/internal/sim"
	"vcalab/internal/stats"
	"vcalab/internal/webrtcstats"
)

// lab is a miniature version of the paper's testbed: clients behind a
// switch, a shaped switch-router hop, and remote hosts at the router.
type lab struct {
	eng      *sim.Engine
	rt, sw   *netem.Router
	up, down *netem.Link
}

func newLab(eng *sim.Engine, upBps, downBps float64) *lab {
	l := &lab{eng: eng, rt: netem.NewRouter("rt"), sw: netem.NewRouter("sw")}
	l.up = netem.NewLink(eng, "bottleneck/up", netem.LinkConfig{RateBps: upBps, Delay: 5 * time.Millisecond}, l.rt)
	l.down = netem.NewLink(eng, "bottleneck/down", netem.LinkConfig{RateBps: downBps, Delay: 5 * time.Millisecond}, l.sw)
	l.sw.DefaultRoute(l.up)
	return l
}

// clientHost creates a host behind the shaped bottleneck.
func (l *lab) clientHost(name string) *netem.Host {
	h := netem.NewHost(l.eng, name)
	h.SetUplink(netem.NewLink(l.eng, name+"-sw", netem.LinkConfig{Delay: 100 * time.Microsecond}, l.sw))
	l.sw.Route(name, netem.NewLink(l.eng, "sw-"+name, netem.LinkConfig{Delay: 100 * time.Microsecond}, h))
	l.rt.Route(name, l.down)
	return h
}

// remoteHost creates an unconstrained host at the router (SFU, far client).
func (l *lab) remoteHost(name string, delay time.Duration) *netem.Host {
	h := netem.NewHost(l.eng, name)
	h.SetUplink(netem.NewLink(l.eng, name+"-rt", netem.LinkConfig{Delay: delay}, l.rt))
	l.rt.Route(name, netem.NewLink(l.eng, "rt-"+name, netem.LinkConfig{Delay: delay}, h))
	return h
}

// twoParty builds the standard 2-party call of §2.2.
func twoParty(eng *sim.Engine, prof *Profile, upBps, downBps float64) (*Call, *lab) {
	l := newLab(eng, upBps, downBps)
	c1 := l.clientHost("c1")
	c2 := l.remoteHost("c2", 5*time.Millisecond)
	sfu := l.remoteHost("sfu", 15*time.Millisecond)
	call := NewCall(eng, prof, sfu, []*netem.Host{c1, c2}, CallOptions{Seed: 42})
	return call, l
}

// meanUpDown runs the call for dur and returns C1's mean up/down Mbps over
// the second half (steady state).
func meanUpDown(eng *sim.Engine, call *Call, dur time.Duration) (up, down float64) {
	call.Start()
	eng.RunUntil(dur)
	call.Stop()
	up = call.C1().UpMeter.MeanRateMbps(dur/2, dur)
	down = call.C1().DownMeter.MeanRateMbps(dur/2, dur)
	return up, down
}

func TestUnconstrainedUtilization(t *testing.T) {
	// Table 2: Meet 0.95/0.84, Teams 1.40/1.86, Zoom 0.78/0.95 Mbps.
	// We check ±25% on upstream, and the structural relations: Zoom's
	// downstream exceeds its upstream (server FEC); Teams uses the most;
	// Zoom the least upstream.
	cases := []struct {
		prof   *Profile
		wantUp float64
	}{
		{Meet(), 0.95},
		{Zoom(), 0.78},
		{Teams(), 1.44},
	}
	got := map[string][2]float64{}
	for _, c := range cases {
		eng := sim.New(1)
		call, _ := twoParty(eng, c.prof, 0, 0)
		up, down := meanUpDown(eng, call, 90*time.Second)
		got[c.prof.Name] = [2]float64{up, down}
		if up < 0.75*c.wantUp || up > 1.25*c.wantUp {
			t.Errorf("%s unconstrained up = %.2f Mbps, want %.2f +-25%%", c.prof.Name, up, c.wantUp)
		}
		if down < 0.3 {
			t.Errorf("%s downstream dead: %.2f Mbps", c.prof.Name, down)
		}
	}
	// Mean upstream includes Zoom's periodic probe bursts, so the
	// observable FEC asymmetry is smaller than Table 2's median ratio.
	if z := got["zoom"]; z[1] < 1.04*z[0] {
		t.Errorf("zoom down (%.2f) should exceed up (%.2f) via server FEC", z[1], z[0])
	}
	if got["teams"][0] < got["meet"][0] || got["meet"][0] < got["zoom"][0] {
		t.Errorf("upstream ordering wrong: teams=%.2f meet=%.2f zoom=%.2f",
			got["teams"][0], got["meet"][0], got["zoom"][0])
	}
}

// TestAudioRate: the audio payload C1 puts on its uplink in an
// unconstrained Meet, Zoom or Teams call is the audioBps that videoTarget
// and downTrack.share set aside, to within one packet over the window.
func TestAudioRate(t *testing.T) {
	const from, to = 5 * time.Second, 15 * time.Second
	for _, prof := range []*Profile{Meet(), Zoom(), Teams()} {
		eng := sim.New(3)
		call, _ := twoParty(eng, prof, 0, 0)
		c1 := call.C1()
		payload := 0
		c1.Host().Uplink().OnSend(func(pkt *netem.Packet) {
			if mp, ok := pkt.Payload.(*MediaPacket); ok && mp.Audio && mp.OriginID == c1.id && eng.Now() >= from && eng.Now() < to {
				payload += pkt.Size - wireOverhead
			}
		})
		call.Start()
		eng.RunUntil(to)
		call.Stop()
		secs := (to - from).Seconds()
		got, tol := float64(payload)*8/secs, audioPayloadBytes*8/secs
		if math.Abs(got-audioBps) > tol {
			t.Errorf("%s: C1 sends %.0f bps of audio payload, want audioBps %d ± %.0f", prof.Name, got, audioBps, tol)
		}
	}
}

// TestSingleStreamOnAnyProfile: MediaMode is the one strategy selector both
// halves of a call read, so flipping it to ModeSingle on a profile that
// ships as simulcast or SVC is a working call: the sender's one stream is
// forwarded and displayed, and nothing simulcast- or SVC-specific runs at
// the SFU. Whether the paper's §4 ablation claim holds on such a profile
// is ROADMAP item 2 and not asserted here.
func TestSingleStreamOnAnyProfile(t *testing.T) {
	for _, prof := range []*Profile{Meet(), Zoom()} {
		prof.MediaMode = ModeSingle
		eng := sim.New(4)
		call, _ := twoParty(eng, prof, 0, 0)
		call.Start()
		if n := len(call.Servers[0].tickers); n != 2 {
			t.Errorf("%s: %d server tickers, want 2 (control, padding): there is no low copy for an allocTick to resize", prof.Name, n)
		}
		eng.RunUntil(30 * time.Second)
		call.Stop()
		if n := call.C1().Receiver("c2").DisplayedFrames(); n == 0 {
			t.Errorf("%s: c1 displayed no frame of c2's single stream", prof.Name)
		}
		// Audio alone is 0.056 Mbps on the wire.
		if down := call.C1().DownMeter.MeanRateMbps(15*time.Second, 30*time.Second); down < 0.3 {
			t.Errorf("%s: c1 receives %.3f Mbps, want video (> 0.3)", prof.Name, down)
		}
		if n := call.Servers[0].FwdSwitches(); n != 0 {
			t.Errorf("%s: %d copy/layer switches on a stream with neither", prof.Name, n)
		}
	}
}

func TestConstrainedUplinkUtilization(t *testing.T) {
	// Fig 1a: all three VCAs use >85% of a 0.5 Mbps uplink.
	for _, prof := range []*Profile{Meet(), Zoom(), Teams()} {
		eng := sim.New(2)
		call, _ := twoParty(eng, prof, 0.5e6, 0)
		up, _ := meanUpDown(eng, call, 120*time.Second)
		if up < 0.36 || up > 0.56 {
			t.Errorf("%s at 0.5 Mbps uplink sends %.2f Mbps, want 0.36-0.56 (>72%% util)", prof.Name, up)
		}
	}
}

func TestMeetDownlinkFloor(t *testing.T) {
	// Fig 1b / §3.1: with a 0.5 Mbps downlink Meet receives only
	// ~0.19 Mbps — the relay is stuck on the low simulcast copy.
	eng := sim.New(3)
	call, _ := twoParty(eng, Meet(), 0, 0.5e6)
	_, down := meanUpDown(eng, call, 120*time.Second)
	if down < 0.10 || down > 0.33 {
		t.Errorf("meet at 0.5 Mbps downlink receives %.2f Mbps, want ~0.19 (low copy)", down)
	}
}

func TestZoomDownstreamTracksConstrainedDownlink(t *testing.T) {
	eng := sim.New(4)
	call, _ := twoParty(eng, Zoom(), 0, 0.8e6)
	_, down := meanUpDown(eng, call, 120*time.Second)
	if down < 0.5 || down > 0.85 {
		t.Errorf("zoom at 0.8 Mbps downlink receives %.2f Mbps, want 0.5-0.85", down)
	}
}

func TestTeamsChromeLowerThanNative(t *testing.T) {
	// Fig 1c: at 1 Mbps uplink, Teams-native ~0.84 vs Teams-Chrome ~0.61.
	run := func(p *Profile) float64 {
		eng := sim.New(5)
		call, _ := twoParty(eng, p, 1e6, 0)
		up, _ := meanUpDown(eng, call, 120*time.Second)
		return up
	}
	native := run(Teams())
	chrome := run(TeamsChrome())
	if chrome >= native {
		t.Errorf("teams-chrome (%.2f) should use less than native (%.2f) at 1 Mbps", chrome, native)
	}
	if native < 0.6 {
		t.Errorf("teams native at 1 Mbps = %.2f, want >= 0.6", native)
	}
}

func TestFIRsUnderConstrainedUplink(t *testing.T) {
	// Fig 3b: Teams-Chrome FIR count spikes at uplink <= 0.5 Mbps.
	run := func(upBps float64) int {
		eng := sim.New(6)
		call, _ := twoParty(eng, TeamsChrome(), upBps, 0)
		call.Start()
		eng.RunUntil(150 * time.Second)
		call.Stop()
		return call.C1().FIRsForMyVideo
	}
	low := run(0.3e6)
	high := run(5e6)
	if low <= high {
		t.Errorf("FIRs at 0.3 Mbps (%d) should exceed FIRs at 5 Mbps (%d)", low, high)
	}
}

func TestWebRTCStatsRecorded(t *testing.T) {
	eng := sim.New(7)
	call, _ := twoParty(eng, Meet(), 0, 0)
	rec := call.C1().RecordStats()
	call.Start()
	eng.RunUntil(30 * time.Second)
	call.Stop()
	if len(rec.Samples) < 25 {
		t.Fatalf("recorded %d samples in 30s, want ~30", len(rec.Samples))
	}
	out := rec.MedianOut(10*time.Second, 30*time.Second)
	if out.Width != 640 || out.FPS != 30 {
		t.Errorf("meet unconstrained outbound params = %+v, want 640x360@30", out)
	}
	in := rec.MedianIn(10*time.Second, 30*time.Second)
	if in.FPS < 20 {
		t.Errorf("inbound FPS = %v, want ~30", in.FPS)
	}
}

// TestStatsRecordedOnlyOnSubscription: getStats sampling is a read-side
// subscription. Subscribing C2 as well changes nothing either client sends
// or receives nor what C1 records; an unsubscribed client arms no 1 Hz
// ticker; and a subscription is one recorder for the life of the client,
// churn included.
func TestStatsRecordedOnlyOnSubscription(t *testing.T) {
	type result struct {
		c1, c2             *webrtcstats.Recorder
		c2Tickers, c2AtGap int
		meters             [4]stats.Series
	}
	run := func(subscribeC2 bool) result {
		eng := sim.New(7)
		call, _ := twoParty(eng, Meet(), 1e6, 0)
		c1, c2 := call.Clients[0], call.Clients[1]
		r := result{c1: c1.RecordStats()}
		if subscribeC2 {
			r.c2 = c2.RecordStats()
			if again := c2.RecordStats(); again != r.c2 {
				t.Error("a second RecordStats returned a different recorder")
			}
		}
		call.Start()
		r.c2Tickers = len(c2.tickers)
		eng.RunUntil(10 * time.Second)
		call.Leave("c2")
		if r.c2 != nil {
			r.c2AtGap = len(r.c2.Samples)
		}
		eng.RunUntil(15 * time.Second)
		call.Rejoin("c2")
		eng.RunUntil(30 * time.Second)
		call.Stop()
		r.meters = [4]stats.Series{c1.UpMeter.RateMbps(), c1.DownMeter.RateMbps(), c2.UpMeter.RateMbps(), c2.DownMeter.RateMbps()}
		return r
	}
	one, both := run(false), run(true)
	if len(one.c1.Samples) < 25 || !reflect.DeepEqual(one.c1.Samples, both.c1.Samples) {
		t.Errorf("C1 recorded %d samples alone and %d beside C2, want the same ~30", len(one.c1.Samples), len(both.c1.Samples))
	}
	if !reflect.DeepEqual(one.meters, both.meters) {
		t.Error("subscribing C2 changed a client's up or down meter series: recording must be read-only")
	}
	if one.c2Tickers != both.c2Tickers-1 {
		t.Errorf("C2 armed %d tickers unsubscribed and %d subscribed, want one fewer", one.c2Tickers, both.c2Tickers)
	}
	if n := len(both.c2.Samples); both.c2AtGap < 9 || n < both.c2AtGap+14 {
		t.Errorf("C2 recorded %d samples before leaving and %d in all, want ~10 and ~25: the subscription must outlive Leave/Rejoin", both.c2AtGap, n)
	}
}

func TestLayoutBudgets(t *testing.T) {
	// §6.1: Zoom's sender budget drops when the 5th participant joins;
	// Meet's at the 7th; Teams' stays flat.
	budget := func(p *Profile, n int, mode ViewMode) float64 {
		eng := sim.New(8)
		l := newLab(eng, 0, 0)
		hosts := []*netem.Host{l.clientHost("c1")}
		for i := 2; i <= n; i++ {
			hosts = append(hosts, l.remoteHost(hostName(i), 5*time.Millisecond))
		}
		sfu := l.remoteHost("sfu", 15*time.Millisecond)
		call := NewCall(eng, p, sfu, hosts, CallOptions{Mode: mode, Seed: 1})
		return call.C1().TierBps()
	}
	if b4, b5 := budget(Zoom(), 4, Gallery), budget(Zoom(), 5, Gallery); b5 >= b4 {
		t.Errorf("zoom budget n=5 (%v) should drop below n=4 (%v)", b5, b4)
	}
	if b6, b7 := budget(Meet(), 6, Gallery), budget(Meet(), 7, Gallery); b7 >= b6 {
		t.Errorf("meet budget n=7 (%v) should drop below n=6 (%v)", b7, b6)
	}
	if b2, b8 := budget(Teams(), 2, Gallery), budget(Teams(), 8, Gallery); b2 != b8 {
		t.Errorf("teams gallery budget should be flat: n=2 %v vs n=8 %v", b2, b8)
	}
	// §6.2: Teams pinned uplink grows with participants; Zoom/Meet don't.
	if s3, s8 := budget(Teams(), 3, Speaker), budget(Teams(), 8, Speaker); s8 <= s3 {
		t.Errorf("teams speaker budget should grow: n=3 %v vs n=8 %v", s3, s8)
	}
	if s3, s8 := budget(Zoom(), 3, Speaker), budget(Zoom(), 8, Speaker); s3 != s8 {
		t.Errorf("zoom speaker budget should be flat: %v vs %v", s3, s8)
	}
}

func hostName(i int) string { return "c" + string(rune('0'+i)) }

func TestMultiPartyCallRuns(t *testing.T) {
	eng := sim.New(9)
	l := newLab(eng, 0, 0)
	hosts := []*netem.Host{l.clientHost("c1")}
	for i := 2; i <= 5; i++ {
		hosts = append(hosts, l.remoteHost(hostName(i), 5*time.Millisecond))
	}
	sfu := l.remoteHost("sfu", 15*time.Millisecond)
	call := NewCall(eng, Zoom(), sfu, hosts, CallOptions{Seed: 3})
	call.Start()
	eng.RunUntil(30 * time.Second)
	call.Stop()
	down := call.C1().DownMeter.MeanRateMbps(15*time.Second, 30*time.Second)
	up := call.C1().UpMeter.MeanRateMbps(15*time.Second, 30*time.Second)
	if down < 0.5 {
		t.Errorf("5-party zoom downstream = %.2f Mbps, want >= 0.5 (4 streams)", down)
	}
	if up < 0.2 || up > 0.7 {
		t.Errorf("5-party zoom upstream = %.2f Mbps, want ~0.4 (TierLow)", up)
	}
}

func TestCallStopsCleanly(t *testing.T) {
	eng := sim.New(10)
	call, _ := twoParty(eng, Teams(), 0, 0)
	call.Start()
	eng.RunUntil(5 * time.Second)
	call.Stop()
	upBefore := call.C1().UpMeter.TotalBytes()
	eng.RunUntil(10 * time.Second)
	if call.C1().UpMeter.TotalBytes() != upBefore {
		t.Error("client kept sending after Stop")
	}
}

func TestDeterministicCalls(t *testing.T) {
	run := func() float64 {
		eng := sim.New(11)
		call, _ := twoParty(eng, Zoom(), 1e6, 1e6)
		up, _ := meanUpDown(eng, call, 60*time.Second)
		return up
	}
	if a, b := run(), run(); a != b {
		t.Errorf("identical seeds diverged: %v vs %v", a, b)
	}
}

// TestStreamNameRoundTrip: a packet names its stream by rate key alone,
// and streamRK maps an unknown stream to video, so every stream the
// encoders and packetizers emit must survive the round trip exactly or a
// flow label would change.
func TestStreamNameRoundTrip(t *testing.T) {
	streams := map[string]bool{"audio": true, "pad": true, "fec": true}
	for _, prof := range []*Profile{Meet(), Zoom(), Teams()} {
		call, _ := twoParty(sim.New(1), prof, 0, 0)
		enc := call.C1().enc
		enc.SetTarget(5e6)
		for i := range 30 {
			for _, f := range enc.Tick(time.Duration(i) * 33 * time.Millisecond) {
				streams[f.StreamID] = true
			}
		}
	}
	for _, want := range []string{"video", "sim/low", "sim/high", "svc"} {
		if !streams[want] {
			t.Errorf("no encoder emitted %q", want)
		}
	}
	for s := range streams {
		if got := streamName(streamRK(s)); got != s {
			t.Errorf("streamName(streamRK(%q)) = %q", s, got)
		}
	}
}

// Rate keys must stay collision-free for every SVC layer index (the dense
// successor of the old svcKey regression: deep ladders must not corrupt
// per-stream rate tracking).
func TestRateKeyAllLayers(t *testing.T) {
	seen := map[int]uint8{}
	for _, stream := range []string{"video", "sim/low", "sim/high", "audio", "pad", "fec"} {
		mp := &MediaPacket{RK: streamRK(stream)}
		k := mp.rateKey()
		if prev, dup := seen[k]; dup {
			t.Errorf("rate key collision: %q and rk %d share index %d", stream, prev, k)
		}
		seen[k] = mp.RK
	}
	for _, layer := range []uint8{0, 1, 9, 10, 37, 128} {
		mp := &MediaPacket{RK: streamRK("svc"), Layer: layer}
		k := mp.rateKey()
		if k != int(rkSVC)+int(layer) {
			t.Errorf("rateKey(svc/%d) = %d, want %d", layer, k, int(rkSVC)+int(layer))
		}
		if _, dup := seen[k]; dup {
			t.Errorf("svc layer %d collides with a base rate key at index %d", layer, k)
		}
	}
}
