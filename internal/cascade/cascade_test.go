package cascade

import (
	"fmt"
	"testing"
	"time"

	"vcalab/internal/netem"
	"vcalab/internal/sim"
	"vcalab/internal/vca"
)

// twoRegions builds a 1+k two-region mesh: c1 homed in r0, k clients in r1.
func twoRegions(eng *sim.Engine, k int, inter netem.LinkConfig) *Mesh {
	var remote []string
	for i := 0; i < k; i++ {
		remote = append(remote, fmt.Sprintf("c%d", i+2))
	}
	return Build(eng, Topology{
		Regions: []Region{
			{Name: "r0", Clients: []string{"c1"}},
			{Name: "r1", Clients: remote},
		},
		Default: inter,
	})
}

func TestMeshWiringDelays(t *testing.T) {
	eng := sim.New(1)
	m := twoRegions(eng, 1, netem.LinkConfig{RateBps: 1e6, Delay: 10 * time.Millisecond})
	var arrived time.Duration
	m.Clients[1][0].HandleFunc(80, func(p *netem.Packet) { arrived = eng.Now() })
	// 1250 B across: access 2 ms + inter (10 ms tx at 1 Mbps + 10 ms
	// prop) + access 2 ms = 24 ms, traversing both regional routers.
	m.Clients[0][0].Send(&netem.Packet{Size: 1250, From: netem.Addr{Host: "c1", Port: 81}, To: netem.Addr{Host: "c2", Port: 80}})
	eng.Run()
	if want := 24 * time.Millisecond; arrived != want {
		t.Errorf("cross-region arrival at %v, want %v", arrived, want)
	}
}

func TestAssignRoundRobin(t *testing.T) {
	a := Assign(7, 3)
	if len(a) != 3 || len(a[0]) != 3 || len(a[1]) != 2 || len(a[2]) != 2 {
		t.Fatalf("Assign(7,3) = %v", a)
	}
	if a[0][0] != "c1" || a[1][0] != "c2" || a[0][1] != "c4" {
		t.Errorf("round-robin order wrong: %v", a)
	}
}

// c1ID is c1's registry ID, which media packets carry: participants
// intern first, in join order.
const c1ID = 0

// TestRelayFlowAccounting asserts the cascade's core bandwidth property:
// each remote origin's media crosses the inter-region link exactly once,
// regardless of how many receivers the remote region fans it out to.
func TestRelayFlowAccounting(t *testing.T) {
	eng := sim.New(2)
	m := twoRegions(eng, 3, netem.LinkConfig{RateBps: 50e6, Delay: 30 * time.Millisecond})
	call := m.NewCall(vca.Meet(), vca.CallOptions{Seed: 2})

	// Tap the r0→r1 link: c1's media must appear exactly once per
	// sequence number even though three receivers display it remotely.
	seen := map[uint16]int{}
	var echoes int
	m.InterLink(0, 1).OnSend(func(p *netem.Packet) {
		mp, ok := p.Payload.(*vca.MediaPacket)
		if !ok || mp.Padding || mp.OriginID != c1ID {
			return
		}
		seen[mp.Seq]++
	})
	// The reverse link must never carry c1's media back (no relay loops).
	m.InterLink(1, 0).OnSend(func(p *netem.Packet) {
		if mp, ok := p.Payload.(*vca.MediaPacket); ok && mp.OriginID == c1ID {
			echoes++
		}
	})

	call.Start()
	eng.RunUntil(20 * time.Second)
	call.Stop()

	if len(seen) == 0 {
		t.Fatal("no c1 media crossed the inter-region link")
	}
	for seq, n := range seen {
		if n != 1 {
			t.Fatalf("c1 seq %d crossed the link %d times, want exactly 1", seq, n)
		}
	}
	if echoes != 0 {
		t.Errorf("%d c1 packets echoed back over the reverse link", echoes)
	}
	// The single crossing still reached every remote receiver.
	for _, cl := range call.Clients[1:] {
		if cl.Receiver("c1").DisplayedFrames() == 0 {
			t.Errorf("%s displayed no frames of c1 despite local fan-out", cl.Name)
		}
	}
}

// TestPerHopVsEndToEndCC checks the per-profile relay-leg control policy:
// Meet/Zoom terminate congestion control on the relay hop, Teams keeps the
// loop end-to-end (pass-through with original timestamps).
func TestPerHopVsEndToEndCC(t *testing.T) {
	build := func(prof *vca.Profile) (*sim.Engine, *Mesh, *vca.Call) {
		eng := sim.New(3)
		m := twoRegions(eng, 1, netem.LinkConfig{RateBps: 20e6, Delay: 30 * time.Millisecond})
		return eng, m, m.NewCall(prof, vca.CallOptions{Seed: 3})
	}

	_, m, call := build(vca.Meet())
	if call.Servers[0].Leg(m.SFUs[1].Name) == nil {
		t.Error("meet relay leg has no controller; want per-hop CC")
	}
	_, m, call = build(vca.Teams())
	if call.Servers[0].Leg(m.SFUs[1].Name) != nil {
		t.Error("teams relay leg has a controller; want end-to-end pass-through")
	}

	// Teams media delivered across the cascade must carry the end-to-end
	// marker so the receiver's delay signal spans origin→receiver.
	eng, m, call := build(vca.Teams())
	var e2e, total int
	m.Clients[1][0].Tap(func(p *netem.Packet) {
		if mp, ok := p.Payload.(*vca.MediaPacket); ok && !mp.Padding && mp.OriginID == c1ID {
			total++
			if mp.E2E {
				e2e++
			}
		}
	})
	call.Start()
	eng.RunUntil(10 * time.Second)
	call.Stop()
	if total == 0 || e2e != total {
		t.Errorf("teams cascade delivered %d/%d packets with E2E marker, want all", e2e, total)
	}
}

// TestCascadeMediaFlows is the basic liveness check: in a 3-region call
// every client receives video from both local and remote origins.
func TestCascadeMediaFlows(t *testing.T) {
	eng := sim.New(4)
	m := Build(eng, Topology{
		Regions: []Region{
			{Name: "r0", Clients: []string{"c1", "c4"}},
			{Name: "r1", Clients: []string{"c2", "c5"}},
			{Name: "r2", Clients: []string{"c3", "c6"}},
		},
		Default: netem.LinkConfig{RateBps: 50e6, Delay: 25 * time.Millisecond},
	})
	call := m.NewCall(vca.Zoom(), vca.CallOptions{Seed: 4})
	call.SampleFrameLatency(5 * time.Second)
	call.Start()
	eng.RunUntil(20 * time.Second)
	call.Stop()
	c1 := call.C1()
	if got := c1.Receiver("c4").DisplayedFrames(); got == 0 {
		t.Error("c1 displayed no frames from local origin c4")
	}
	for _, origin := range []string{"c2", "c3"} {
		if got := c1.Receiver(origin).DisplayedFrames(); got == 0 {
			t.Errorf("c1 displayed no frames from remote origin %s", origin)
		}
	}
	if p50 := call.FrameLatencyPercentilesMs(50); p50 == nil || p50[0] <= 0 {
		t.Errorf("median end-to-end frame latency = %v ms, want a positive one", p50)
	}
	down := c1.DownMeter.MeanRateMbps(10*time.Second, 20*time.Second)
	if down < 0.5 {
		t.Errorf("c1 downstream in 6-party cascade = %.2f Mbps, want >= 0.5", down)
	}
}

// TestCascadeConstrainedInterLink: squeezing the inter-region link hurts
// remote streams while local ones stay healthy (the whole point of
// regional cascading).
func TestCascadeConstrainedInterLink(t *testing.T) {
	run := func(interBps float64) (remote, local int) {
		eng := sim.New(5)
		m := Build(eng, Topology{
			Regions: []Region{
				{Name: "r0", Clients: []string{"c1", "c3"}},
				{Name: "r1", Clients: []string{"c2"}},
			},
			Default: netem.LinkConfig{RateBps: interBps, Delay: 30 * time.Millisecond},
		})
		call := m.NewCall(vca.Meet(), vca.CallOptions{Seed: 5})
		call.Start()
		eng.RunUntil(25 * time.Second)
		call.Stop()
		c1 := call.C1()
		return c1.Receiver("c2").DisplayedFrames(), c1.Receiver("c3").DisplayedFrames()
	}
	remWide, locWide := run(50e6)
	remTight, locTight := run(0.2e6)
	if remTight >= remWide {
		t.Errorf("remote frames should drop under a tight inter link: %d (tight) vs %d (wide)", remTight, remWide)
	}
	if locTight < locWide/2 {
		t.Errorf("local fan-out should survive the tight inter link: %d (tight) vs %d (wide)", locTight, locWide)
	}
}

func TestCascadeDeterministic(t *testing.T) {
	run := func() float64 {
		eng := sim.New(6)
		m := twoRegions(eng, 2, netem.LinkConfig{RateBps: 5e6, Delay: 30 * time.Millisecond})
		call := m.NewCall(vca.Zoom(), vca.CallOptions{Seed: 6})
		call.Start()
		eng.RunUntil(15 * time.Second)
		call.Stop()
		return call.C1().DownMeter.TotalBytes()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("identical seeds diverged in cascade: %v vs %v", a, b)
	}
}
