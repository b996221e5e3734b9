package experiment

import (
	"time"

	"vcalab/internal/cascade"
	"vcalab/internal/netem"
	"vcalab/internal/scenario"
	"vcalab/internal/sim"
	"vcalab/internal/vca"
)

// trial is what one repetition of any experiment runs on: the paper's
// shared-bottleneck Lab (§2.2) or a cascaded mesh, the measured call, and
// the one start → run → stop → release. A runner's trial function builds
// one, defers its release, schedules what its experiment shapes when, and
// reads its measurements off the call after run; capture (observe.go)
// attaches here, so it sees every experiment the same way.
type trial struct {
	seed int64
	// eng is the control engine, where runners schedule shaping events and
	// snapshots; engines is eng followed by any shard engines.
	eng     *sim.Engine
	engines []*sim.Engine
	lab     *Lab           // exactly one of lab
	mesh    *cascade.Trial // and mesh is set
	call    *vca.Call
	// competitor is the §5 VCA competitor's call, when it has started.
	competitor *vca.Call
	// timeline, when set, starts just before the call so its t<=0 events
	// (a thinned starting roster) apply first.
	timeline *scenario.Timeline
	obs      *trialObs // nil = capture off
}

// labTrial is the §2.2 testbed trial: NewLabCall's n-party call on a
// fresh engine. The options carry the trial seed plus any per-experiment
// toggles (the viewing mode, loss recovery for the impairment sweep).
func labTrial(o *trialObs, seed int64, prof *vca.Profile, n int, upBps, downBps float64, opt vca.CallOptions) *trial {
	eng := sim.New(seed)
	lab, call := NewLabCall(eng, prof, n, upBps, downBps, opt)
	return &trial{seed: seed, eng: eng, engines: []*sim.Engine{eng}, lab: lab, call: call, obs: o}
}

// newMeshTrial builds the topology every cascade experiment runs on — n
// clients dealt over regions, every inter-region link alike (interMbps,
// cascade.DefaultInterDelay) — with its cascaded call, region-sharded
// where shards and the topology allow.
func newMeshTrial(o *trialObs, seed int64, prof *vca.Profile, n, regions int, interMbps float64, shards int, recovery bool) *trial {
	m := cascade.NewTrial(seed,
		cascade.Uniform(n, regions, netem.LinkConfig{RateBps: interMbps * 1e6, Delay: cascade.DefaultInterDelay}),
		shards, prof, vca.CallOptions{Seed: seed, Recovery: recovery})
	return &trial{seed: seed, eng: m.Eng, engines: m.Engines(), mesh: m, call: m.Call, obs: o}
}

// links lists every link the trial has right now, in a deterministic order.
func (t *trial) links() []*netem.Link {
	if t.mesh != nil {
		return t.mesh.Links()
	}
	return t.lab.links
}

// start attaches capture (when on), then starts the timeline and the
// call. What a runner schedules between start and run keeps the
// sequence numbers it always had.
func (t *trial) start() {
	t.obs.attach(t)
	if t.timeline != nil {
		t.timeline.Start()
	}
	t.call.Start()
}

// run runs every engine to dur and stops the call and the metrics
// sampler with it, so a drain that follows (scenario.Check) runs dry.
func (t *trial) run(dur time.Duration) {
	if t.mesh == nil {
		t.eng.RunUntil(dur)
	} else {
		t.mesh.RunUntil(dur)
	}
	t.call.Stop()
	if t.obs != nil && t.obs.sampler != nil {
		t.obs.sampler.Stop()
	}
}

// release ends the trial and hands its working state to the next trial in
// the process (DESIGN.md §7): it releases any shard goroutines, then the
// competitor's call and the call's packet pools, recovery state, RNGs and
// getStats buffers (vca.Call.Release), every host's packet pool and, last,
// every engine. Calls, hosts and engines go back last-made first, so the
// free lists, which hand out the last item put, give the next trial's calls,
// hosts and engines those made in the same place: on a sweep of one
// topology each packet pool keeps its role and never grows to another's
// peak. Deferred where the trial is
// built, release runs once the runner, capture and any scenario.Check drain
// have read what they need.
func (t *trial) release() {
	if t.mesh != nil {
		t.mesh.Close()
	}
	if t.competitor != nil {
		t.competitor.Release()
	}
	t.call.Release()
	if m := t.mesh; m != nil {
		for ri := len(m.SFUs) - 1; ri >= 0; ri-- {
			for i := len(m.Clients[ri]) - 1; i >= 0; i-- {
				m.Clients[ri][i].Release()
			}
			m.SFUs[ri].Release()
		}
	} else {
		for i := len(t.lab.hosts) - 1; i >= 0; i-- {
			t.lab.hosts[i].Release()
		}
	}
	for i := len(t.engines) - 1; i >= 0; i-- {
		t.engines[i].Release()
	}
}
