// Package experiment reproduces the paper's laboratory and every
// experiment in its evaluation: the static shaping sweeps of §3
// (Fig 1–3, Table 2), the transient disruptions of §4 (Fig 4–6), the
// competition studies of §5 (Fig 8–14) and the call-modality studies of §6
// (Fig 15). Each runner returns typed results; the formatters print
// paper-style rows so benches and CLIs can regenerate every table and
// figure.
package experiment

import (
	"fmt"
	"time"

	"vcalab/internal/netem"
	"vcalab/internal/scenario"
	"vcalab/internal/sim"
	"vcalab/internal/vca"
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
	// it walks cascade.Mesh.Links().
	links []*netem.Link
	// access is each host's up/down access pair by name, the pair a
	// scenario shapes: the bottleneck for a host behind the switch, its
	// own router pair for a remote host.
	access map[string][2]*netem.Link
}

// clientDelay is the one-way delay between a bottleneck client and the
// router; RemoteDelay the default router↔remote host delay; SFUDelay the
// router↔SFU delay.
const (
	clientDelay = 5 * time.Millisecond
	RemoteDelay = 5 * time.Millisecond
	SFUDelay    = 15 * time.Millisecond
	// iperfDelay matches the paper's iPerf3 server "within the same
	// network (average RTT 2 ms)".
	iperfDelay = time.Millisecond
)

// NewLab builds the testbed with initial shaping rates (0 = unconstrained,
// the paper's 1 Gbps case).
func NewLab(eng *sim.Engine, upBps, downBps float64) *Lab {
	l := &Lab{Eng: eng, rt: netem.NewRouter("rt"), sw: netem.NewRouter("sw"), access: map[string][2]*netem.Link{}}
	l.up = netem.NewLink(eng, "bottleneck/up", netem.LinkConfig{RateBps: upBps, Delay: clientDelay}, l.rt)
	l.down = netem.NewLink(eng, "bottleneck/down", netem.LinkConfig{RateBps: downBps, Delay: clientDelay}, l.sw)
	l.links = []*netem.Link{l.up, l.down}
	l.sw.DefaultRoute(l.up)
	return l
}

// NewLabCall builds the paper's n-party call on a fresh testbed shaped
// to upBps/downBps: C1 behind the bottleneck, C2..Cn at RemoteDelay and
// the SFU at SFUDelay, created in that order. Capture walks the links in
// creation order, so the order is part of the capture digests.
func NewLabCall(eng *sim.Engine, prof *vca.Profile, n int, upBps, downBps float64, opt vca.CallOptions) (*Lab, *vca.Call) {
	l := NewLab(eng, upBps, downBps)
	hosts := make([]*netem.Host, 1, n)
	hosts[0] = l.ClientHost("c1")
	for i := 2; i <= n; i++ {
		hosts = append(hosts, l.RemoteHost(fmt.Sprintf("c%d", i), RemoteDelay))
	}
	return l, vca.NewCall(eng, prof, l.RemoteHost("sfu", SFUDelay), hosts, opt)
}

// ResolveLink implements scenario.LinkResolver, so a scenario re-shapes
// the Lab mid-call as it re-shapes a cascade mesh. LinkClientUp and
// LinkClientDown name a host's access link: for C1 and F1 the shaped
// bottleneck, their access hop in §2.2. An unknown host and the
// inter-region kinds resolve to nothing, as in scenario.MeshLinks.
func (l *Lab) ResolveLink(ref scenario.LinkRef) []*netem.Link {
	pair, ok := l.access[ref.Client]
	if !ok {
		return nil
	}
	switch ref.Kind {
	case scenario.LinkClientUp:
		return []*netem.Link{pair[0]}
	case scenario.LinkClientDown:
		return []*netem.Link{pair[1]}
	}
	return nil
}

// Uplink exposes the shaped uplink (for taps and drop accounting).
func (l *Lab) Uplink() *netem.Link { return l.up }

// Downlink exposes the shaped downlink.
func (l *Lab) Downlink() *netem.Link { return l.down }

// ClientHost attaches a host behind the shaped bottleneck (C1, F1).
func (l *Lab) ClientHost(name string) *netem.Host {
	h := netem.NewHost(l.Eng, name)
	up, down := netem.Attach(l.Eng, h, l.sw, netem.LinkConfig{Delay: 100 * time.Microsecond})
	l.links = append(l.links, up, down)
	l.rt.Route(name, l.down)
	l.access[name] = [2]*netem.Link{l.up, l.down}
	return h
}

// RemoteHost attaches an unconstrained host at the router (far clients,
// SFUs, CDN and iPerf servers).
func (l *Lab) RemoteHost(name string, delay time.Duration) *netem.Host {
	h := netem.NewHost(l.Eng, name)
	up, down := netem.Attach(l.Eng, h, l.rt, netem.LinkConfig{Delay: delay})
	l.links = append(l.links, up, down)
	l.access[name] = [2]*netem.Link{up, down}
	return h
}
