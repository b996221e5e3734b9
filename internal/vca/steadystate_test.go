package vca

import (
	"runtime"
	"testing"
	"time"

	"vcalab/internal/netem"
	"vcalab/internal/race"
	"vcalab/internal/sim"
)

// TestSteadyStateCallMallocs pins the media plane's allocation-free steady
// state end to end: once a call has warmed up (pools filled, lanes
// promoted, receivers created), ten further simulated seconds — ~1200
// encoder ticks, 400 receiver reports and tens of thousands of packets —
// may allocate only what is retained as results: the 1 Hz Recorder
// samples and the 1 s meter bins, growing their slices. A per-frame,
// per-report or per-packet allocation anywhere on the path costs
// thousands of objects and fails this.
func TestSteadyStateCallMallocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates")
	}
	const budget = 400 // measured 60-120 per profile; one leak site is >= 1000
	for _, prof := range []*Profile{Meet(), Teams(), Zoom()} {
		eng := sim.New(3)
		l := newLab(eng, 0, 0)
		hosts := []*netem.Host{l.clientHost("c1")}
		for _, name := range []string{"c2", "c3", "c4"} {
			hosts = append(hosts, l.remoteHost(name, 5*time.Millisecond))
		}
		call := NewCall(eng, prof, l.remoteHost("sfu", 15*time.Millisecond), hosts, CallOptions{Seed: 3})
		call.Start()
		eng.RunUntil(5 * time.Second)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		eng.RunUntil(15 * time.Second)
		runtime.ReadMemStats(&after)
		call.Stop()
		if got := after.Mallocs - before.Mallocs; got > budget {
			t.Errorf("%s: %d mallocs over 10 steady-state sim-seconds, budget %d", prof.Name, got, budget)
		} else {
			t.Logf("%s: %d mallocs over 10 steady-state sim-seconds", prof.Name, got)
		}
	}
}
