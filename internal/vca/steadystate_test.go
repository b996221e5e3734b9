package vca

import (
	"math"
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
// may allocate only the 1 s meter bins, growing their slices, and what the
// envelope and media pools still add on the way to their high-water mark
// (nobody here subscribed to getStats). A per-frame, per-report or
// per-packet allocation anywhere on the path costs thousands of objects
// and fails this.
func TestSteadyStateCallMallocs(t *testing.T) {
	steadyStateMallocs(t, false, 5*time.Second, 480) // measured 142-238 per profile; one leak site is >= 1000
}

// TestSteadyStateRecoveryMallocs holds the recovery-on packet path to the
// same budget under 1% loss on everything the SFU sends: NACKs, TWCC
// reports and retransmissions come from pools, a ring slot shares the
// ingress packet, and an in-order arrival builds no closure and touches
// no reorder window. The warm-up is longer: a ring recycles its first
// retained packet only after 512 emissions, which an audio-only
// (receiver, origin) pair takes ten seconds to send.
func TestSteadyStateRecoveryMallocs(t *testing.T) {
	steadyStateMallocs(t, true, 15*time.Second, 480) // measured 16-178 per profile
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

// TestFrameLatencyLogAllocs pins what frame-latency sampling costs: O(the
// distinct latencies), not O(samples), while recording — the staging
// buffer plus 512-byte pages of 64 eight-byte entries, so what the table
// holds rounded up to a page, and a pointer a page in an index that
// doubles — and, for a read of p50/p95/p99, the result and the slice of
// region tables, with no merged copy. The 1 000 values arrive in ascending
// order, a few new ones a merge, so the table grows through every size on
// the way; keeping each sample (1.3 MB here), or growing the table by
// doubling (about twice the final size in all), fails the first. Both
// read the process-wide TotalAlloc, which an allocation elsewhere in the
// process only raises; each attempt, on a fresh call, allocates the same,
// so the least of up to three attempts is what sampling costs.
func TestFrameLatencyLogAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates")
	}
	const n, distinct, staging = 40 * 8192, 1000, 4 << 10
	const pages = (distinct + 63) / 64
	const recBudget, readBudget = uint64(staging + pages*(512+16)), uint64(64)
	rec, read := uint64(math.MaxUint64), uint64(math.MaxUint64)
	var pc []float64
	for attempt := 0; attempt < 3 && (rec > recBudget || read > readBudget); attempt++ {
		call := fiveParty(sim.New(1), Zoom())
		call.SampleFrameLatency(0)
		log := call.Clients[0].lat
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			log.Add(time.Duration(i*distinct/n) * 50 * time.Microsecond)
		}
		runtime.ReadMemStats(&after)
		rec = min(rec, after.TotalAlloc-before.TotalAlloc)
		runtime.ReadMemStats(&before)
		pc = call.FrameLatencyPercentilesMs(50, 95, 99)
		runtime.ReadMemStats(&after)
		read = min(read, after.TotalAlloc-before.TotalAlloc)
	}
	if rec > recBudget {
		t.Errorf("recording %d samples of %d latencies allocated %d B, budget %d", n, distinct, rec, recBudget)
	} else {
		t.Logf("recording %d samples of %d latencies allocated %d B", n, distinct, rec)
	}
	if read > readBudget {
		t.Errorf("reading three percentiles of %d samples allocated %d B, budget %d (the result and the table slice)", n, read, readBudget)
	} else {
		t.Logf("reading three percentiles of %d samples allocated %d B", n, read)
	}
	if len(pc) != 3 || !(24 < pc[0] && pc[0] < pc[1] && pc[1] < pc[2] && pc[2] < 50) {
		t.Errorf("p50/p95/p99 = %v ms of a uniform 0–49.95 ms sample", pc)
	}
}
