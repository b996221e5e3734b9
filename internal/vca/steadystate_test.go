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
	steadyStateMallocs(t, false, 5*time.Second, 400) // measured 60-120 per profile; one leak site is >= 1000
}

// TestSteadyStateRecoveryMallocs holds the recovery-on packet path to the
// same budget under 1% loss on everything the SFU sends: NACKs, TWCC
// reports and retransmissions come from pools, a ring slot shares the
// ingress packet, and an in-order arrival builds no closure and touches
// no reorder window. The warm-up is longer: a ring recycles its first
// retained packet only after 512 emissions, which an audio-only
// (receiver, origin) pair takes ten seconds to send.
func TestSteadyStateRecoveryMallocs(t *testing.T) {
	steadyStateMallocs(t, true, 15*time.Second, 400) // measured 20-180 per profile
}

func steadyStateMallocs(t *testing.T, recovery bool, warmup time.Duration, budget uint64) {
	if race.Enabled {
		t.Skip("race instrumentation allocates")
	}
	for _, prof := range []*Profile{Meet(), Teams(), Zoom()} {
		eng := sim.New(3)
		l := newLab(eng, 0, 0)
		hosts := []*netem.Host{l.clientHost("c1")}
		for _, name := range []string{"c2", "c3", "c4"} {
			hosts = append(hosts, l.remoteHost(name, 5*time.Millisecond))
		}
		sfu := l.remoteHost("sfu", 15*time.Millisecond)
		call := NewCall(eng, prof, sfu, hosts, CallOptions{Seed: 3, Recovery: recovery})
		if recovery {
			sfu.Uplink().SetImpairment(0.01, 0)
		}
		call.Start()
		eng.RunUntil(warmup)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		eng.RunUntil(warmup + 10*time.Second)
		runtime.ReadMemStats(&after)
		call.Stop()
		if got := after.Mallocs - before.Mallocs; got > budget {
			t.Errorf("%s: %d mallocs over 10 steady-state sim-seconds, budget %d", prof.Name, got, budget)
		} else {
			t.Logf("%s: %d mallocs over 10 steady-state sim-seconds", prof.Name, got)
		}
		if recovery {
			if nacks, rtx := call.NackRTXTotals(); nacks == 0 || rtx == 0 {
				t.Errorf("%s: recovery loop idle under loss: %d NACKed seqs, %d RTX", prof.Name, nacks, rtx)
			}
		}
	}
}
