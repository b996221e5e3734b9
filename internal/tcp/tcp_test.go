package tcp

import (
	"runtime"
	"testing"
	"time"

	"vcalab/internal/netem"
	"vcalab/internal/race"
	"vcalab/internal/sim"
	"vcalab/internal/stats"
)

// pair builds: src --(bottleneck rateBps, delay)--> router --> dst, with an
// unconstrained reverse path for acks.
func pair(eng *sim.Engine, rateBps float64, delay time.Duration) (*netem.Host, *netem.Host) {
	src := netem.NewHost(eng, "src")
	dst := netem.NewHost(eng, "dst")
	rt := netem.NewRouter("rt")
	src.SetUplink(netem.NewLink(eng, "src-rt", netem.LinkConfig{RateBps: rateBps, Delay: delay}, rt))
	dst.SetUplink(netem.NewLink(eng, "dst-rt", netem.LinkConfig{Delay: delay}, rt))
	rt.Route("src", netem.NewLink(eng, "rt-src", netem.LinkConfig{}, src))
	rt.Route("dst", netem.NewLink(eng, "rt-dst", netem.LinkConfig{}, dst))
	return src, dst
}

func TestBulkFlowFillsLink(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     Config
		seed    int64
		rateBps float64
		lo, hi  float64 // steady goodput bounds, Mbps
	}{
		{"tcp", Config{}, 1, 10e6, 8.5, 10.1},
		{"quic", Config{MSS: 1350, AckSize: 35}, 1, 5e6, 4.0, 5.1}, // YouTube's framing (apps.YouTube)
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.New(tc.seed)
			src, dst := pair(eng, tc.rateBps, 5*time.Millisecond)
			f := NewFlow(eng, "bulk", src, dst, 5201, tc.cfg)
			m := stats.NewMeter(time.Second)
			f.OnDeliver(func(at time.Duration, n int) { m.AddBytes(at, n) })
			f.Start(0)
			eng.RunUntil(20 * time.Second)
			f.Stop()
			got := m.MeanRateMbps(5*time.Second, 20*time.Second)
			if got < tc.lo || got > tc.hi {
				t.Errorf("steady goodput = %.2f Mbps on a %.0f Mbps link, want %.1f-%.1f", got, tc.rateBps/1e6, tc.lo, tc.hi)
			}
		})
	}
}

func TestBulkFlowSlowLink(t *testing.T) {
	eng := sim.New(2)
	src, dst := pair(eng, 0.5e6, 10*time.Millisecond)
	f := NewFlow(eng, "iperf", src, dst, 5201, Config{})
	m := stats.NewMeter(time.Second)
	f.OnDeliver(func(at time.Duration, n int) { m.AddBytes(at, n) })
	f.Start(0)
	eng.RunUntil(30 * time.Second)
	got := m.MeanRateMbps(5*time.Second, 30*time.Second)
	if got < 0.4 || got > 0.52 {
		t.Errorf("goodput = %.3f Mbps on a 0.5 Mbps link, want ~0.42-0.5", got)
	}
}

func TestBoundedTransferCompletes(t *testing.T) {
	for _, tc := range []struct {
		name     string
		cfg      Config
		seed     int64
		rateBps  float64
		total    int
		deadline time.Duration
	}{
		// 1 MB over 5 Mbps ≈ 1.6 s + slow start; allow up to 5 s.
		{"tcp", Config{}, 3, 5e6, 1_000_000, 5 * time.Second},
		{"quic", Config{MSS: 1350, AckSize: 35}, 2, 2e6, 500_000, 30 * time.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.New(tc.seed)
			src, dst := pair(eng, tc.rateBps, 5*time.Millisecond)
			f := NewFlow(eng, "dl", src, dst, 80, tc.cfg)
			done := time.Duration(0)
			f.OnComplete(func() { done = eng.Now() })
			var bytes int
			f.OnDeliver(func(_ time.Duration, n int) { bytes += n })
			f.Start(int64(tc.total))
			eng.RunUntil(time.Minute)
			if done == 0 {
				t.Fatal("transfer never completed")
			}
			if bytes < tc.total {
				t.Errorf("delivered %d bytes, want >= %d", bytes, tc.total)
			}
			if done > tc.deadline {
				t.Errorf("%d bytes over %.0f Mbps took %v, want <= %v", tc.total, tc.rateBps/1e6, done, tc.deadline)
			}
		})
	}
}

// TestQUICDatagramSizing checks YouTube's framing on the wire: a 1350-byte
// QUIC datagram plus the 40-byte header overhead.
func TestQUICDatagramSizing(t *testing.T) {
	eng := sim.New(3)
	src, dst := pair(eng, 1e6, 5*time.Millisecond)
	seen, maxSize := 0, 0
	dst.Tap(func(p *netem.Packet) {
		seen++
		maxSize = max(maxSize, p.Size)
	})
	f := NewFlow(eng, "yt", src, dst, 443, Config{MSS: 1350, AckSize: 35})
	f.Start(100_000)
	eng.RunUntil(10 * time.Second)
	if seen == 0 {
		t.Fatal("no datagrams delivered")
	}
	if maxSize != 1350+wireOverhead {
		t.Errorf("max datagram wire size = %d, want 1390", maxSize)
	}
}

func TestLossRecovery(t *testing.T) {
	eng := sim.New(4)
	src, dst := pair(eng, 2e6, 10*time.Millisecond)
	// Small queue to force drops.
	src.Uplink().SetQueueBytes(6 * 1500)
	f := NewFlow(eng, "iperf", src, dst, 5201, Config{})
	m := stats.NewMeter(time.Second)
	f.OnDeliver(func(at time.Duration, n int) { m.AddBytes(at, n) })
	f.Start(0)
	eng.RunUntil(30 * time.Second)
	if f.FastRecoveries == 0 {
		t.Error("no fast recoveries despite a tiny queue")
	}
	got := m.MeanRateMbps(5*time.Second, 30*time.Second)
	if got < 1.2 {
		t.Errorf("goodput = %.2f Mbps with small queue on 2 Mbps link, want >= 1.2", got)
	}
}

func TestRTORecoveryAfterBlackout(t *testing.T) {
	eng := sim.New(5)
	src, dst := pair(eng, 2e6, 10*time.Millisecond)
	f := NewFlow(eng, "iperf", src, dst, 5201, Config{})
	m := stats.NewMeter(time.Second)
	f.OnDeliver(func(at time.Duration, n int) { m.AddBytes(at, n) })
	f.Start(0)
	// Blackout: shrink the link to a trickle with a tiny queue at t=5s.
	eng.ScheduleHandler(5*time.Second, sim.HandlerFunc(func(time.Duration) {
		src.Uplink().SetRate(1000)
		src.Uplink().SetQueueBytes(1500)
	}))
	eng.ScheduleHandler(15*time.Second, sim.HandlerFunc(func(time.Duration) {
		src.Uplink().SetRate(2e6)
		src.Uplink().SetQueueBytes(netem.DefaultQueueBytes(2e6))
	}))
	eng.RunUntil(40 * time.Second)
	if f.RTOCount == 0 {
		t.Error("no RTOs during a 10 s blackout")
	}
	got := m.MeanRateMbps(25*time.Second, 40*time.Second)
	if got < 1.2 {
		t.Errorf("post-blackout goodput = %.2f Mbps, want >= 1.2 (recovered)", got)
	}
}

func TestTwoFlowsShareRoughlyFairly(t *testing.T) {
	eng := sim.New(6)
	// Two senders behind one shared 4 Mbps bottleneck.
	srcA := netem.NewHost(eng, "a")
	srcB := netem.NewHost(eng, "b")
	dst := netem.NewHost(eng, "dst")
	sw := netem.NewRouter("sw")
	rt := netem.NewRouter("rt")
	srcA.SetUplink(netem.NewLink(eng, "a-sw", netem.LinkConfig{Delay: time.Millisecond}, sw))
	srcB.SetUplink(netem.NewLink(eng, "b-sw", netem.LinkConfig{Delay: time.Millisecond}, sw))
	sw.DefaultRoute(netem.NewLink(eng, "sw-rt", netem.LinkConfig{RateBps: 4e6, Delay: 5 * time.Millisecond}, rt))
	rt.Route("dst", netem.NewLink(eng, "rt-dst", netem.LinkConfig{}, dst))
	back := netem.NewLink(eng, "rt-sw-back", netem.LinkConfig{Delay: time.Millisecond}, sw)
	_ = back
	dst.SetUplink(netem.NewLink(eng, "dst-rt", netem.LinkConfig{Delay: 5 * time.Millisecond}, rt))
	rt.Route("a", netem.NewLink(eng, "rt-a", netem.LinkConfig{}, srcA))
	rt.Route("b", netem.NewLink(eng, "rt-b", netem.LinkConfig{}, srcB))
	sw.Route("a", netem.NewLink(eng, "sw-a", netem.LinkConfig{}, srcA))
	sw.Route("b", netem.NewLink(eng, "sw-b", netem.LinkConfig{}, srcB))

	fa := NewFlow(eng, "fa", srcA, dst, 5001, Config{})
	fb := NewFlow(eng, "fb", srcB, dst, 5002, Config{})
	ma, mb := stats.NewMeter(time.Second), stats.NewMeter(time.Second)
	fa.OnDeliver(func(at time.Duration, n int) { ma.AddBytes(at, n) })
	fb.OnDeliver(func(at time.Duration, n int) { mb.AddBytes(at, n) })
	fa.Start(0)
	fb.Start(0)
	eng.RunUntil(180 * time.Second)
	ra := ma.MeanRateMbps(60*time.Second, 180*time.Second)
	rb := mb.MeanRateMbps(60*time.Second, 180*time.Second)
	share := stats.Share(ra, rb)
	if share < 0.25 || share > 0.75 {
		t.Errorf("share = %.2f (a=%.2f b=%.2f Mbps), want 0.25-0.75", share, ra, rb)
	}
	if ra+rb < 3.0 {
		t.Errorf("combined goodput = %.2f Mbps on 4 Mbps link, want >= 3", ra+rb)
	}
}

func TestStopHaltsTraffic(t *testing.T) {
	eng := sim.New(7)
	src, dst := pair(eng, 2e6, 5*time.Millisecond)
	f := NewFlow(eng, "iperf", src, dst, 5201, Config{})
	m := stats.NewMeter(time.Second)
	f.OnDeliver(func(at time.Duration, n int) { m.AddBytes(at, n) })
	f.Start(0)
	eng.RunUntil(5 * time.Second)
	f.Stop()
	eng.RunUntil(10 * time.Second)
	if after := m.MeanRateMbps(6*time.Second, 10*time.Second); after > 0.1 {
		t.Errorf("traffic after Stop = %.2f Mbps, want ~0", after)
	}
}

func TestRTTEstimate(t *testing.T) {
	eng := sim.New(8)
	src, dst := pair(eng, 10e6, 25*time.Millisecond) // ~50ms RTT
	f := NewFlow(eng, "iperf", src, dst, 5201, Config{})
	f.Start(0)
	eng.RunUntil(2 * time.Second)
	if f.srtt < 45*time.Millisecond || f.srtt > 250*time.Millisecond {
		t.Errorf("SRTT = %v, want ~50ms-250ms (base RTT 50ms + queueing)", f.srtt)
	}
}

// lossyPair is pair with a 2 Mbps, 6-packet drop-tail bottleneck and random
// loss on both the data and the ack path: every way a packet can end.
func lossyPair(eng *sim.Engine, loss float64) (src, dst *netem.Host, data, acks *netem.Link) {
	src = netem.NewHost(eng, "src")
	dst = netem.NewHost(eng, "dst")
	rt := netem.NewRouter("rt")
	data = netem.NewLink(eng, "src-rt", netem.LinkConfig{RateBps: 2e6, Delay: 10 * time.Millisecond, QueueBytes: 6 * 1500, LossProb: loss}, rt)
	acks = netem.NewLink(eng, "dst-rt", netem.LinkConfig{Delay: 10 * time.Millisecond, LossProb: loss}, rt)
	src.SetUplink(data)
	dst.SetUplink(acks)
	rt.Route("src", netem.NewLink(eng, "rt-src", netem.LinkConfig{}, src))
	rt.Route("dst", netem.NewLink(eng, "rt-dst", netem.LinkConfig{}, dst))
	return src, dst, data, acks
}

// TestFlowEnvelopesReturnToPool: segments and acks are pooled payloads in
// envelopes drawn from the sending host's pool, and every terminal point —
// delivery, a random-loss drop, a drop-tail overflow — hands both back, so
// once a stopped flow has drained neither host has an envelope outstanding
// and the flow has no payload out, none of them returned twice.
func TestFlowEnvelopesReturnToPool(t *testing.T) {
	eng := sim.New(9)
	src, dst, data, acks := lossyPair(eng, 0.01)
	f := NewFlow(eng, "iperf", src, dst, 5201, Config{})

	// An arriving packet is still out of its sender's pool while the taps
	// run; a literal envelope would leave both counts at zero throughout.
	segsOut, acksOut, payloadsOut := 0, 0, 0
	dst.Tap(func(*netem.Packet) {
		segsOut = max(segsOut, src.PoolLive())
		payloadsOut = max(payloadsOut, f.segs.live+f.acks.live)
	})
	src.Tap(func(*netem.Packet) { acksOut = max(acksOut, dst.PoolLive()) })

	f.Start(0)
	eng.RunUntil(20 * time.Second)
	f.Stop()
	eng.RunUntil(25 * time.Second)
	if f.FastRecoveries == 0 || data.DroppedBytes == 0 || acks.DroppedBytes == 0 {
		t.Fatalf("fast recoveries %d, data bytes dropped %d, ack bytes dropped %d; the test needs all three", f.FastRecoveries, data.DroppedBytes, acks.DroppedBytes)
	}
	if segsOut == 0 || acksOut == 0 || payloadsOut == 0 {
		t.Errorf("peak out of the pools mid-flow: %d segment envelopes, %d ack envelopes, %d payloads; want all pooled", segsOut, acksOut, payloadsOut)
	}
	if s, d := src.PoolLive(), dst.PoolLive(); s != 0 || d != 0 {
		t.Errorf("after drain: %d segment and %d ack envelopes outstanding, want 0 and 0", s, d)
	}
	if f.segs.live != 0 || f.acks.live != 0 {
		t.Errorf("after drain: %d segments and %d acks outstanding, want 0 and 0", f.segs.live, f.acks.live)
	}
	free := map[any]bool{}
	for _, s := range f.segs.free {
		free[s] = true
	}
	for _, a := range f.acks.free {
		free[a] = true
	}
	if n := len(f.segs.free) + len(f.acks.free); len(free) != n {
		t.Errorf("free lists hold %d entries but %d distinct payloads: one was released twice", n, len(free))
	}
}

// TestFlowSteadyStateAllocs: a warmed-up flow runs allocation-free, with
// and without loss — payloads and envelopes come from pools, an ack's
// Sacked reuses its array and the RTO timer's handler is bound once. A
// per-packet box, slice or closure coming back costs thousands of objects
// over these ten simulated seconds (~1700 segments and as many acks).
func TestFlowSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates")
	}
	for _, loss := range []float64{0, 0.01} {
		eng := sim.New(10)
		src, dst, _, _ := lossyPair(eng, loss)
		f := NewFlow(eng, "iperf", src, dst, 5201, Config{})
		f.Start(0)
		eng.RunUntil(10 * time.Second)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		eng.RunUntil(20 * time.Second)
		runtime.ReadMemStats(&after)
		f.Stop()
		const budget = 100 // measured 0 both ways; a boxed value per packet costs 3900-5200
		if got := after.Mallocs - before.Mallocs; got > budget {
			t.Errorf("loss %.2f: %d mallocs over 10 steady-state sim-seconds, budget %d", loss, got, budget)
		} else {
			t.Logf("loss %.2f: %d mallocs over 10 steady-state sim-seconds", loss, got)
		}
	}
}
