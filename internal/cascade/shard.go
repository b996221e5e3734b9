// Trial: one cascaded-call run, and the only entry to region-sharded
// execution (conservative-window PDES, sim.Group).
//
// The partition unit is the region — a region's clients, SFU, router and
// access links share one engine, so everything that was single-threaded
// stays single-threaded. The only traffic between regions rides the
// directed inter-region links, and those have a fixed propagation-delay
// floor (a continental WAN hop): that floor is the conservative
// lookahead. A topology whose cross-shard links have no positive delay
// provides no lookahead, so it runs on one engine — which is not a second
// code path but the same Trial with no shard engines under it.
package cascade

import (
	"fmt"
	"math"
	"time"

	"vcalab/internal/netem"
	"vcalab/internal/sim"
	"vcalab/internal/vca"
)

// Uniform is the topology every cascade experiment runs on: n clients
// ("c1".."cN") dealt round-robin (Assign) over regions "r0".."r<regions-1>",
// with every directed inter-region link configured as inter.
func Uniform(n, regions int, inter netem.LinkConfig) Topology {
	topo := Topology{Default: inter}
	for r, clients := range Assign(n, regions) {
		topo.Regions = append(topo.Regions, Region{Name: fmt.Sprintf("r%d", r), Clients: clients})
	}
	return topo
}

// shardCount is how many engine shards a topology can run on: the request
// capped at the region count (regions are dealt round-robin, region ri on
// shard ri % n), and 1 whenever conservative windows are impossible —
// fewer than two shards asked for, or inter links (two or more shards put
// some of them across shards) with a zero delay floor.
func shardCount(topo Topology, shards int) int {
	shards = min(shards, len(topo.Regions))
	if shards <= 1 || interConfig(topo).Delay <= 0 {
		return 1
	}
	return shards
}

// Trial is a built mesh, the cascaded call on it and the engine(s) under
// both. Mesh.Eng is the control engine — schedule timelines, warmup
// snapshots and samplers there, on one engine or many. Drive the run with
// RunUntil and Drain and release it with Close; nothing outside this file
// needs to know whether shard engines exist.
type Trial struct {
	*Mesh
	Call *vca.Call

	engines []*sim.Engine // control first, then shards in domain order
	group   *sim.Group    // nil on one engine

	boundary []*netem.Link // cross-shard inter links, pair order
	dstOf    []int         // boundary[i]'s destination region
}

// NewTrial wires topo, region-sharded up to `shards` ways where the
// topology allows it, and attaches the cascaded call: each region's
// machinery is homed on its region's engine, and every cross-shard inter
// link becomes a mailbox boundary that re-homes payloads into the
// destination region's pool. Engine seeds derive deterministically from
// seed; per-link RNG streams (fractional loss, jitter) differ between
// shard counts, so only draw-free workloads are byte-identical across them.
func NewTrial(seed int64, topo Topology, shards int, prof *vca.Profile, opt vca.CallOptions) *Trial {
	ctrl := sim.New(seed)
	t := &Trial{engines: []*sim.Engine{ctrl}}
	if n := shardCount(topo, shards); n > 1 {
		for k := 1; k <= n; k++ {
			t.engines = append(t.engines, sim.New(seed+int64(k)*104729))
		}
		t.group = sim.NewGroup(ctrl, t.engines[1:], t.lookahead)
	}
	regionEng := func(ri int) *sim.Engine { return t.engines[t.engineOf(ri)] }
	t.Mesh = build(ctrl, topo, regionEng)
	for _, p := range t.pairs {
		if i, j := p[0], p[1]; t.engineOf(i) != t.engineOf(j) {
			t.boundary = append(t.boundary, t.inter[i][j])
			t.dstOf = append(t.dstOf, j)
			t.group.Register(t.inter[i][j].Handoff(regionEng(j)))
		}
	}
	pl := t.Placements()
	for ri := range pl {
		pl[ri].Eng = regionEng(ri)
	}
	t.Call = vca.NewCascadedCall(ctrl, prof, pl, opt)
	for bi, l := range t.boundary {
		l.SetHandoffPayload(t.Call.PayloadTransfer(t.dstOf[bi]))
	}
	return t
}

// engineOf is the index in engines of the engine region ri lives on:
// regions are dealt round-robin over the shards, and with no shards
// everything lives on the control engine.
func (t *Trial) engineOf(ri int) int {
	if n := len(t.engines) - 1; n > 0 {
		return 1 + ri%n
	}
	return 0
}

// lookahead is the Group's per-window lookahead: the minimum live
// propagation delay across the boundary links, so a timeline that
// reshapes an inter-region delay mid-run narrows (or widens) the window
// from the next barrier on. Jitter only adds delay, so it never
// undercuts the floor.
func (t *Trial) lookahead() time.Duration {
	look := time.Duration(math.MaxInt64)
	for _, l := range t.boundary {
		look = min(look, l.Delay())
	}
	return look
}

// RunUntil executes every event with at <= d and leaves every clock at d.
func (t *Trial) RunUntil(d time.Duration) {
	if t.group == nil {
		t.Eng.RunUntil(d)
		return
	}
	t.group.RunUntil(d)
}

// Drain runs until no engine has anything pending — what a harness calls
// on a stopped call to bring every packet and event home.
func (t *Trial) Drain() {
	if t.group == nil {
		t.Eng.Run()
		return
	}
	t.group.Run()
}

// Close releases the shard goroutines, if there are any. Idempotent.
func (t *Trial) Close() {
	if t.group != nil {
		t.group.Close()
	}
}

// Engines returns every engine of the trial: the control engine, then the
// shards in domain order. One entry on one engine.
func (t *Trial) Engines() []*sim.Engine { return t.engines }

// BoundaryLinks returns the cross-shard inter links in deterministic
// (ascending pair) order. Empty on one engine.
func (t *Trial) BoundaryLinks() []*netem.Link { return t.boundary }
