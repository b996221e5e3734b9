// Package cascade composes multiple vca.Server instances into a
// geo-distributed relay mesh, the way production VCAs serve large calls:
// every region runs its own SFU, clients attach to their home region, and
// the SFUs cascade media between regions so each origin's stream crosses
// each inter-region link once regardless of the remote fan-out (ion-sfu's
// relay peers, LiveKit's Room/Forwarder pipeline).
//
// The package owns the topology side: a Topology describes regions, the
// one latency/bandwidth configuration every directed inter-region link
// shares and the client→home-region assignment; Build wires it into a
// multi-router netem lab; Mesh.NewCall attaches the cascaded protocol
// machinery (vca.NewCascadedCall) on top.
// The §4.2 server behaviours survive intact across the cascade — Meet and
// Zoom terminate congestion control on every hop, Teams relays RTCP
// end-to-end — which is what the scale experiment (experiment.RunScale)
// measures under conditions the paper's two-laptop lab never reached.
package cascade

import (
	"fmt"
	"time"

	"vcalab/internal/netem"
	"vcalab/internal/sim"
	"vcalab/internal/vca"
)

// Hop delays. Every access hop is an unconstrained link; scenarios
// re-shape one mid-call through AccessUplink/AccessDownlink.
const (
	// accessDelay is the client↔regional-router one-way delay.
	accessDelay = 2 * time.Millisecond
	// sfuDelay is the SFU↔regional-router one-way delay.
	sfuDelay = 2 * time.Millisecond
	// DefaultInterDelay is the inter-region one-way delay (a continental
	// WAN hop) of a Topology whose Default is the zero LinkConfig.
	DefaultInterDelay = 40 * time.Millisecond
)

// Region is one SFU site and the clients homed on it.
type Region struct {
	Name string
	// Clients are the client host names homed in this region.
	Clients []string
}

// Topology describes a cascaded relay mesh: regions plus the one
// configuration of every directed inter-region link.
type Topology struct {
	Regions []Region
	// Default configures every inter-region link. A zero value means an
	// unconstrained link with DefaultInterDelay.
	Default netem.LinkConfig
}

// Assign spreads n clients ("c1".."cN") round-robin across regions —
// the standard home-region assignment for the scale experiment. It
// returns one name slice per region; client 1 (C1) lands in region 0.
func Assign(n, regions int) [][]string {
	out := make([][]string, regions)
	for i := 0; i < n; i++ {
		r := i % regions
		out[r] = append(out[r], fmt.Sprintf("c%d", i+1))
	}
	return out
}

// Mesh is a built cascade topology: one router and SFU host per region,
// client hosts attached to their home routers, and directed inter-region
// links carrying all cross-region traffic (relayed media, per-hop or
// end-to-end RTCP, FIRs).
type Mesh struct {
	Eng *sim.Engine

	// SFUs holds one SFU host per region, index-aligned with the
	// topology's Regions.
	SFUs []*netem.Host
	// Clients holds the client hosts per region.
	Clients [][]*netem.Host
	// Routers are the regional routers.
	Routers []*netem.Router

	topo Topology
	// inter is the dense directed link matrix: inter[i][j] is the region
	// i → region j link (nil on the diagonal). Index-addressed like the
	// call's routing tables, so placement code never hashes a key.
	inter [][]*netem.Link
	pairs [][2]int // deterministic iteration order over inter links
	// accessUp/accessDown index every host's access-link pair by host
	// name (clients and SFUs alike), so dynamic scenarios can re-shape
	// any hop of the built topology mid-simulation. Cold path: lookups
	// happen at scenario-event cadence, never per packet.
	accessUp, accessDown map[string]*netem.Link
}

// interConfig resolves the inter-region link configuration: the topology
// default, or DefaultInterDelay where that is the zero value.
func interConfig(topo Topology) netem.LinkConfig {
	cfg := topo.Default
	if cfg == (netem.LinkConfig{}) {
		cfg.Delay = DefaultInterDelay
	}
	return cfg
}

// Build wires the topology into a multi-router netem lab. SFU hosts are
// named "sfu-<region>"; client host names come from the topology.
func Build(eng *sim.Engine, topo Topology) *Mesh {
	return build(eng, topo, nil)
}

// build wires the topology. engOf, when non-nil, picks the engine each
// region's hosts and links live on (the region-sharded layout); an inter
// link lives on its source region's engine. Nil means everything on eng.
func build(eng *sim.Engine, topo Topology, engOf func(ri int) *sim.Engine) *Mesh {
	if len(topo.Regions) == 0 {
		panic("cascade: topology needs at least one region")
	}
	if engOf == nil {
		engOf = func(int) *sim.Engine { return eng }
	}
	m := &Mesh{
		Eng: eng, topo: topo,
		inter:      make([][]*netem.Link, len(topo.Regions)),
		accessUp:   map[string]*netem.Link{},
		accessDown: map[string]*netem.Link{},
	}
	for i := range m.inter {
		m.inter[i] = make([]*netem.Link, len(topo.Regions))
	}
	for _, r := range topo.Regions {
		m.Routers = append(m.Routers, netem.NewRouter("rt-"+r.Name))
	}
	// Inter-region links first, so host routes can reference them.
	cfg := interConfig(topo)
	for i := range topo.Regions {
		for j := range topo.Regions {
			if i == j {
				continue
			}
			name := "inter/" + topo.Regions[i].Name + "-" + topo.Regions[j].Name
			l := netem.NewLink(engOf(i), name, cfg, m.Routers[j])
			m.inter[i][j] = l
			m.pairs = append(m.pairs, [2]int{i, j})
		}
	}
	for ri, r := range topo.Regions {
		rEng := engOf(ri)
		sfu := netem.NewHost(rEng, "sfu-"+r.Name)
		up, down := netem.Attach(rEng, sfu, m.Routers[ri], netem.LinkConfig{Delay: sfuDelay})
		m.accessUp[sfu.Name], m.accessDown[sfu.Name] = up, down
		m.SFUs = append(m.SFUs, sfu)
		m.routeRemote(ri, sfu.Name)

		var hosts []*netem.Host
		for _, name := range r.Clients {
			h := netem.NewHost(rEng, name)
			up, down := netem.Attach(rEng, h, m.Routers[ri], netem.LinkConfig{Delay: accessDelay})
			m.accessUp[name], m.accessDown[name] = up, down
			hosts = append(hosts, h)
			m.routeRemote(ri, name)
		}
		m.Clients = append(m.Clients, hosts)
	}
	return m
}

// routeRemote teaches every other region's router to reach a host homed
// in region ri over the direct inter-region link.
func (m *Mesh) routeRemote(ri int, host string) {
	for q := range m.topo.Regions {
		if q == ri {
			continue
		}
		m.Routers[q].Route(host, m.inter[q][ri])
	}
}

// InterLink returns the directed link from region i to region j.
func (m *Mesh) InterLink(i, j int) *netem.Link { return m.inter[i][j] }

// Regions reports the number of regions in the built topology.
func (m *Mesh) Regions() int { return len(m.topo.Regions) }

// AccessUplink returns the named host's host→router access link, or nil
// for an unknown host.
func (m *Mesh) AccessUplink(host string) *netem.Link { return m.accessUp[host] }

// AccessDownlink returns the named host's router→host access link, or nil
// for an unknown host.
func (m *Mesh) AccessDownlink(host string) *netem.Link { return m.accessDown[host] }

// InterLinks returns every directed inter-region link in a deterministic
// order (ascending (from, to)).
func (m *Mesh) InterLinks() []*netem.Link {
	out := make([]*netem.Link, 0, len(m.pairs))
	for _, p := range m.pairs {
		out = append(out, m.inter[p[0]][p[1]])
	}
	return out
}

// Links returns every link of the built topology in a deterministic
// order: inter-region links (ascending (from, to)), then per region the
// SFU's up/down access pair followed by each client's up/down pair in
// declaration order. Instrumentation that iterates "all links" — tracer
// attachment, metrics registration — goes through here so its side
// effects (and therefore any JSONL output) are reproducible.
func (m *Mesh) Links() []*netem.Link {
	out := m.InterLinks()
	for ri, r := range m.topo.Regions {
		sfu := m.SFUs[ri].Name
		out = append(out, m.accessUp[sfu], m.accessDown[sfu])
		for _, name := range r.Clients {
			out = append(out, m.accessUp[name], m.accessDown[name])
		}
	}
	return out
}

// Placements converts the built mesh into the per-region client/SFU host
// groups vca.NewCascadedCall consumes.
func (m *Mesh) Placements() []vca.CascadePlacement {
	out := make([]vca.CascadePlacement, len(m.SFUs))
	for i := range m.SFUs {
		out[i] = vca.CascadePlacement{Server: m.SFUs[i], Clients: m.Clients[i]}
	}
	return out
}

// NewCall attaches a cascaded call to the mesh: clients homed per region,
// one SFU per region, relay legs between all SFU pairs.
func (m *Mesh) NewCall(prof *vca.Profile, opt vca.CallOptions) *vca.Call {
	return vca.NewCascadedCall(m.Eng, prof, m.Placements(), opt)
}
