package apps

import (
	"testing"
	"time"

	"vcalab/internal/netem"
	"vcalab/internal/sim"
	"vcalab/internal/stats"
	"vcalab/internal/tcp"
)

// lab: client behind a shaped downlink, servers at the router.
type lab struct {
	eng      *sim.Engine
	rt, sw   *netem.Router
	down, up *netem.Link
}

func newLab(eng *sim.Engine, upBps, downBps float64) *lab {
	l := &lab{eng: eng, rt: netem.NewRouter("rt"), sw: netem.NewRouter("sw")}
	l.up = netem.NewLink(eng, "up", netem.LinkConfig{RateBps: upBps, Delay: 5 * time.Millisecond}, l.rt)
	l.down = netem.NewLink(eng, "down", netem.LinkConfig{RateBps: downBps, Delay: 5 * time.Millisecond}, l.sw)
	l.sw.DefaultRoute(l.up)
	return l
}

func (l *lab) clientHost(name string) *netem.Host {
	h := netem.NewHost(l.eng, name)
	h.SetUplink(netem.NewLink(l.eng, name+"-sw", netem.LinkConfig{}, l.sw))
	l.sw.Route(name, netem.NewLink(l.eng, "sw-"+name, netem.LinkConfig{}, h))
	l.rt.Route(name, l.down)
	return h
}

func (l *lab) remoteHost(name string, delay time.Duration) *netem.Host {
	h := netem.NewHost(l.eng, name)
	h.SetUplink(netem.NewLink(l.eng, name+"-rt", netem.LinkConfig{Delay: delay}, l.rt))
	l.rt.Route(name, netem.NewLink(l.eng, "rt-"+name, netem.LinkConfig{Delay: delay}, h))
	return h
}

// tapMeter meters every byte delivered to h, headers included.
func tapMeter(eng *sim.Engine, h *netem.Host) *stats.Meter {
	m := stats.NewMeter(time.Second)
	h.Tap(func(p *netem.Packet) { m.AddBytes(eng.Now(), p.Size) })
	return m
}

// newIPerf is §5.2's iPerf3 competitor as the experiments build it: one
// unbounded bulk TCP flow from src to dst.
func newIPerf(eng *sim.Engine, src, dst *netem.Host) *tcp.Flow {
	f := tcp.NewFlow(eng, "iperf3", src, dst, 5201, tcp.Config{})
	f.Start(0)
	return f
}

func TestIPerfSaturatesLink(t *testing.T) {
	eng := sim.New(1)
	l := newLab(eng, 0, 2e6)
	client := l.clientHost("f1")
	srv := l.remoteHost("srv", time.Millisecond)
	ip := newIPerf(eng, srv, client)
	m := stats.NewMeter(time.Second)
	ip.OnDeliver(m.AddBytes)
	eng.RunUntil(30 * time.Second)
	ip.Stop()
	got := m.MeanRateMbps(10*time.Second, 30*time.Second)
	if got < 1.6 || got > 2.05 {
		t.Errorf("iperf on 2 Mbps downlink = %.2f Mbps, want ~1.7-2", got)
	}
}

func TestNetflixStreamsComfortably(t *testing.T) {
	eng := sim.New(2)
	l := newLab(eng, 0, 10e6)
	client := l.clientHost("f1")
	cdn := l.remoteHost("cdn", 5*time.Millisecond)
	m := tapMeter(eng, client)
	nf := NewNetflix(eng, client, cdn, 7000)
	nf.Start()
	eng.RunUntil(60 * time.Second)
	nf.Stop()
	rate := m.MeanRateMbps(10*time.Second, 60*time.Second)
	// Should reach the 3 Mbps top rendition and pace around it, fetching
	// ~chunkSeconds of video per chunk (duty-cycled by the buffer cap).
	if rate < 1.5 {
		t.Errorf("netflix on 10 Mbps = %.2f Mbps, want >= 1.5 (top rendition pacing)", rate)
	}
	if nf.PeakParallel > 3 {
		t.Errorf("netflix opened %d parallel connections on an uncontended link", nf.PeakParallel)
	}
}

func TestNetflixOpensParallelConnectionsUnderScarcity(t *testing.T) {
	eng := sim.New(3)
	// 0.5 Mbps downlink shared with nothing: the lowest rendition is
	// 0.235 Mbps; make it struggle by adding an iperf competitor.
	l := newLab(eng, 0, 0.5e6)
	client := l.clientHost("f1")
	cdn := l.remoteHost("cdn", 5*time.Millisecond)
	srv := l.remoteHost("srv", time.Millisecond)
	ip := newIPerf(eng, srv, client)
	nf := NewNetflix(eng, client, cdn, 7000)
	nf.Start()
	eng.RunUntil(120 * time.Second)
	nf.Stop()
	ip.Stop()
	if nf.ConnectionsOpened < 5 {
		t.Errorf("netflix opened %d connections under scarcity, want >= 5 (paper: 28)", nf.ConnectionsOpened)
	}
	if nf.PeakParallel < 2 {
		t.Errorf("netflix peak parallel = %d, want >= 2 (paper: 11)", nf.PeakParallel)
	}
}

func TestYouTubeStreams(t *testing.T) {
	eng := sim.New(4)
	l := newLab(eng, 0, 5e6)
	client := l.clientHost("f1")
	cdn := l.remoteHost("cdn", 5*time.Millisecond)
	largest := 0
	client.Tap(func(p *netem.Packet) { largest = max(largest, p.Size) })
	m := tapMeter(eng, client)
	yt := NewYouTube(eng, client, cdn, 8000)
	yt.Start()
	eng.RunUntil(60 * time.Second)
	yt.Stop()
	rate := m.MeanRateMbps(10*time.Second, 60*time.Second)
	if rate < 1.0 {
		t.Errorf("youtube on 5 Mbps = %.2f Mbps, want >= 1.0", rate)
	}
	// QUIC framing: a 1350-byte datagram plus 40 bytes of UDP/IP and short
	// header.
	if largest != 1350+40 {
		t.Errorf("largest delivered datagram = %d bytes on the wire, want 1390", largest)
	}
}

func TestYouTubeAdaptsDown(t *testing.T) {
	eng := sim.New(5)
	l := newLab(eng, 0, 0.5e6)
	client := l.clientHost("f1")
	cdn := l.remoteHost("cdn", 5*time.Millisecond)
	yt := NewYouTube(eng, client, cdn, 8000)
	yt.Start()
	eng.RunUntil(60 * time.Second)
	yt.Stop()
	if yt.rateIdx > 1 {
		t.Errorf("youtube rendition index = %d on a 0.5 Mbps link, want 0-1", yt.rateIdx)
	}
}

func TestStopsAreClean(t *testing.T) {
	eng := sim.New(6)
	l := newLab(eng, 0, 2e6)
	client := l.clientHost("f1")
	cdn := l.remoteHost("cdn", 5*time.Millisecond)
	m := tapMeter(eng, client)
	nf := NewNetflix(eng, client, cdn, 7000)
	nf.Start()
	eng.RunUntil(10 * time.Second)
	nf.Stop()
	before := m.TotalBytes()
	eng.RunUntil(20 * time.Second)
	// In-flight packets may still land briefly; no *new* chunks may start.
	after := m.TotalBytes()
	if after-before > 200_000 {
		t.Errorf("netflix delivered %.0f bytes after Stop", after-before)
	}
}
