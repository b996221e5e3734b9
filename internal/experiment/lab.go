// Package experiment reproduces the paper's laboratory and every
// experiment in its evaluation: the static shaping sweeps of §3
// (Fig 1–3, Table 2), the transient disruptions of §4 (Fig 4–6), the
// competition studies of §5 (Fig 8–14) and the call-modality studies of §6
// (Fig 15). Each runner returns typed results; the formatters print
// paper-style rows so benches and CLIs can regenerate every table and
// figure.
package experiment

import (
	"time"

	"vcalab/internal/netem"
	"vcalab/internal/obs"
	"vcalab/internal/sim"
)

// Lab is the paper's testbed (§2.2, Fig 7): clients C1 (and, for
// competition, F1) sit behind a switch; the switch-router hop is the shaped
// bottleneck in both directions; far clients, SFUs and servers attach to
// the router over fast links.
type Lab struct {
	Eng *sim.Engine

	rt, sw   *netem.Router
	up, down *netem.Link
	// links lists every link in creation order — the shaped pair, then
	// each host's pair as it is attached — so capture walks a Lab the way
	// it walks cascade.Mesh.Links(). A link created once capture has set
	// tracer (a host attached mid-run) is traced from its first packet.
	links  []*netem.Link
	tracer *obs.Tracer
}

// ClientDelay is the one-way delay between a bottleneck client and the
// router; RemoteDelay the default router↔remote host delay; SFUDelay the
// router↔SFU delay.
const (
	ClientDelay = 5 * time.Millisecond
	RemoteDelay = 5 * time.Millisecond
	SFUDelay    = 15 * time.Millisecond
	// IPerfDelay matches the paper's iPerf3 server "within the same
	// network (average RTT 2 ms)".
	IPerfDelay = time.Millisecond
)

// NewLab builds the testbed with initial shaping rates (0 = unconstrained,
// the paper's 1 Gbps case).
func NewLab(eng *sim.Engine, upBps, downBps float64) *Lab {
	l := &Lab{Eng: eng, rt: netem.NewRouter("rt"), sw: netem.NewRouter("sw")}
	l.up = l.link("bottleneck/up", netem.LinkConfig{RateBps: upBps, Delay: ClientDelay}, l.rt)
	l.down = l.link("bottleneck/down", netem.LinkConfig{RateBps: downBps, Delay: ClientDelay}, l.sw)
	l.sw.DefaultRoute(l.up)
	return l
}

func (l *Lab) link(name string, cfg netem.LinkConfig, dst netem.Handler) *netem.Link {
	ln := netem.NewLink(l.Eng, name, cfg, dst)
	ln.SetTracer(l.tracer)
	l.links = append(l.links, ln)
	return ln
}

// SetUplink re-shapes the client→router direction, like `tc` (§2.2). The
// queue is resized to the 200 ms home-router depth for the new rate.
func (l *Lab) SetUplink(bps float64) { reshape(l.up, bps) }

// SetDownlink re-shapes the router→client direction.
func (l *Lab) SetDownlink(bps float64) { reshape(l.down, bps) }

func reshape(l *netem.Link, bps float64) {
	l.SetRate(bps)
	if bps > 0 {
		l.SetQueueBytes(netem.DefaultQueueBytes(bps))
	}
}

// Uplink exposes the shaped uplink (for taps and drop accounting).
func (l *Lab) Uplink() *netem.Link { return l.up }

// Downlink exposes the shaped downlink.
func (l *Lab) Downlink() *netem.Link { return l.down }

// ClientHost attaches a host behind the shaped bottleneck (C1, F1).
func (l *Lab) ClientHost(name string) *netem.Host {
	h := netem.NewHost(l.Eng, name)
	h.SetUplink(l.link(name+"-sw", netem.LinkConfig{Delay: 100 * time.Microsecond}, l.sw))
	l.sw.Route(name, l.link("sw-"+name, netem.LinkConfig{Delay: 100 * time.Microsecond}, h))
	l.rt.Route(name, l.down)
	return h
}

// RemoteHost attaches an unconstrained host at the router (far clients,
// SFUs, CDN and iPerf servers).
func (l *Lab) RemoteHost(name string, delay time.Duration) *netem.Host {
	h := netem.NewHost(l.Eng, name)
	h.SetUplink(l.link(name+"-rt", netem.LinkConfig{Delay: delay}, l.rt))
	l.rt.Route(name, l.link("rt-"+name, netem.LinkConfig{Delay: delay}, h))
	return h
}
