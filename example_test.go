// The examples are the facade's worked uses, and `go test` runs each
// against its pinned output. Every number comes from the seeded
// virtual-time simulation, so the output is the same on every host and at
// any parallelism. They run single-engine trials through the same sweep
// pool that internal/experiment's tests run under the race detector;
// under -race they would add about two minutes to the root package and no
// coverage, so they build only without it.

//go:build !race

package vcalab_test

import (
	"fmt"
	"time"

	"vcalab"
)

// Run a two-party Zoom call over a 1 Mbps access link and print what it
// used — the minimal end-to-end use of the vcalab API.
func Example() {
	eng := vcalab.NewEngine(42)

	// The paper's testbed: client C1 behind a 1 Mbps symmetric access
	// link, the far client and the VCA's relay server out on the Internet
	// (§2.2).
	_, call := vcalab.NewLabCall(eng, vcalab.Zoom(), 2, 1e6, 1e6, vcalab.CallOptions{Seed: 42})
	call.Start()
	eng.RunUntil(150 * time.Second) // the paper's 2.5-minute call
	call.Stop()

	up := call.C1().UpMeter.MeanRateMbps(30*time.Second, 150*time.Second)
	down := call.C1().DownMeter.MeanRateMbps(30*time.Second, 150*time.Second)
	fmt.Printf("zoom on a 1 Mbps symmetric link:\n")
	fmt.Printf("  upstream   %.2f Mbps\n", up)
	fmt.Printf("  downstream %.2f Mbps\n", down)
	fmt.Printf("  freezes    %.1f%% of call time\n",
		100*call.C1().Receiver("c2").FreezeRatio())
	// Output:
	// zoom on a 1 Mbps symmetric link:
	//   upstream   0.83 Mbps
	//   downstream 0.94 Mbps
	//   freezes    5.3% of call time
}

// Reproduce the paper's §4 headline — how long each VCA takes to recover
// after a 30-second dip of the uplink to 0.25 Mbps — and print the
// recovery traces that distinguish the three congestion controllers
// (Fig 4): Meet's smooth GCC ramp, Teams' slow-then-fast climb, and Zoom's
// staircase with its long overshoot above nominal.
func Example_disruption() {
	fmt.Println("30-second uplink dip to 0.25 Mbps, one minute into a call:")
	fmt.Println()
	for _, mk := range []func() *vcalab.Profile{vcalab.Meet, vcalab.Teams, vcalab.Zoom} {
		r := vcalab.RunDisruption(vcalab.DisruptionConfig{
			Profile:   mk(),
			Dir:       vcalab.Uplink,
			LevelMbps: 0.25,
			Reps:      2,
			Seed:      3,
		})
		fmt.Printf("%-8s time to recovery: %5.1f s  (recovered %d/%d runs)\n",
			r.Profile, r.TTR.Mean, r.Recovered, 2)

		// A compact sparkline of the upstream bitrate (10 s buckets).
		fmt.Printf("%-8s trace: ", "")
		for t := 10 * time.Second; t <= 240*time.Second; t += 10 * time.Second {
			win := r.Series.Slice(t-10*time.Second, t)
			fmt.Print(spark(vcalab.Mean(win.Values)))
		}
		fmt.Println("  (10s/char, dip at 60-90s)")
	}
	fmt.Println()
	fmt.Println("Paper §4: every VCA needs 20+ seconds to recover from severe")
	fmt.Println("uplink dips; Zoom is slowest and then probes above nominal.")
	// Output:
	// 30-second uplink dip to 0.25 Mbps, one minute into a call:
	//
	// meet     time to recovery:  21.5 s  (recovered 2/2 runs)
	//          trace: -=====....:=======-=====  (10s/char, dip at 60-90s)
	// teams    time to recovery:  22.5 s  (recovered 2/2 runs)
	//          trace: -=****.___:**++**++*++**  (10s/char, dip at 60-90s)
	// zoom     time to recovery:  28.0 s  (recovered 2/2 runs)
	//          trace: ------....:---------=---  (10s/char, dip at 60-90s)
	//
	// Paper §4: every VCA needs 20+ seconds to recover from severe
	// uplink dips; Zoom is slowest and then probes above nominal.
}

// spark maps a rate in Mbps to one sparkline character, 0.25 Mbps a step.
func spark(mbps float64) string {
	levels := []string{"_", ".", ":", "-", "=", "+", "*", "#"}
	idx := int(mbps / 2.0 * float64(len(levels)))
	if idx >= len(levels) {
		idx = len(levels) - 1
	}
	if idx < 0 {
		idx = 0
	}
	return levels[idx]
}

// The remote-education scenario from the paper's introduction: how does a
// student's bandwidth change as classmates join, and what does pinning the
// teacher cost the teacher's uplink (§6)?
func Example_classroom() {
	for _, mk := range []func() *vcalab.Profile{vcalab.Meet, vcalab.Teams, vcalab.Zoom} {
		prof := mk()
		fmt.Printf("== %s classroom ==\n", prof.Name)

		fmt.Println("gallery view (everyone tiled):")
		gallery := vcalab.ModalitySweep(mk(), vcalab.Gallery, 8, 2, 11)
		for _, r := range gallery {
			fmt.Printf("  %d students: student needs %.2f down / %.2f up Mbps\n",
				r.N, r.DownMbps.Mean, r.UpMbps.Mean)
		}

		fmt.Println("teacher pinned by every student (speaker view):")
		speaker := vcalab.ModalitySweep(mk(), vcalab.Speaker, 8, 2, 13)
		for _, r := range speaker {
			fmt.Printf("  %d students: teacher uplink %.2f Mbps\n", r.N, r.UpMbps.Mean)
		}
		fmt.Println()
	}
	fmt.Println("Note the §6 findings: Zoom's and Meet's uplink DROPS as the")
	fmt.Println("gallery grows (smaller tiles need less resolution), while a")
	fmt.Println("pinned Teams sender uploads MORE for every extra participant.")
	// Output:
	// == meet classroom ==
	// gallery view (everyone tiled):
	//   2 students: student needs 0.80 down / 1.01 up Mbps
	//   3 students: student needs 1.29 down / 0.84 up Mbps
	//   4 students: student needs 1.93 down / 0.85 up Mbps
	//   5 students: student needs 2.48 down / 0.84 up Mbps
	//   6 students: student needs 2.97 down / 0.84 up Mbps
	//   7 students: student needs 1.72 down / 0.29 up Mbps
	//   8 students: student needs 2.00 down / 0.28 up Mbps
	// teacher pinned by every student (speaker view):
	//   2 students: teacher uplink 1.27 Mbps
	//   3 students: teacher uplink 1.27 Mbps
	//   4 students: teacher uplink 1.27 Mbps
	//   5 students: teacher uplink 1.28 Mbps
	//   6 students: teacher uplink 1.26 Mbps
	//   7 students: teacher uplink 1.26 Mbps
	//   8 students: teacher uplink 1.26 Mbps
	//
	// == teams classroom ==
	// gallery view (everyone tiled):
	//   2 students: student needs 1.51 down / 1.52 up Mbps
	//   3 students: student needs 1.73 down / 1.51 up Mbps
	//   4 students: student needs 2.61 down / 1.53 up Mbps
	//   5 students: student needs 3.46 down / 1.51 up Mbps
	//   6 students: student needs 2.36 down / 1.51 up Mbps
	//   7 students: student needs 2.42 down / 1.54 up Mbps
	//   8 students: student needs 2.47 down / 1.51 up Mbps
	// teacher pinned by every student (speaker view):
	//   2 students: teacher uplink 1.36 Mbps
	//   3 students: teacher uplink 1.36 Mbps
	//   4 students: teacher uplink 1.71 Mbps
	//   5 students: teacher uplink 2.05 Mbps
	//   6 students: teacher uplink 2.40 Mbps
	//   7 students: teacher uplink 2.73 Mbps
	//   8 students: teacher uplink 3.08 Mbps
	//
	// == zoom classroom ==
	// gallery view (everyone tiled):
	//   2 students: student needs 0.93 down / 0.85 up Mbps
	//   3 students: student needs 1.87 down / 0.85 up Mbps
	//   4 students: student needs 2.79 down / 0.86 up Mbps
	//   5 students: student needs 1.86 down / 0.43 up Mbps
	//   6 students: student needs 2.32 down / 0.43 up Mbps
	//   7 students: student needs 2.78 down / 0.43 up Mbps
	//   8 students: student needs 3.25 down / 0.43 up Mbps
	// teacher pinned by every student (speaker view):
	//   2 students: teacher uplink 1.11 Mbps
	//   3 students: teacher uplink 1.12 Mbps
	//   4 students: teacher uplink 1.11 Mbps
	//   5 students: teacher uplink 1.11 Mbps
	//   6 students: teacher uplink 1.10 Mbps
	//   7 students: teacher uplink 1.09 Mbps
	//   8 students: teacher uplink 1.11 Mbps
	//
	// Note the §6 findings: Zoom's and Meet's uplink DROPS as the
	// gallery grows (smaller tiles need less resolution), while a
	// pinned Teams sender uploads MORE for every extra participant.
}

// The policy question that motivated the paper — does the FCC's 25/3 Mbps
// broadband definition suffice for a multi-person household on
// simultaneous video calls (§1, §3 takeaway)? One, two, then three
// simultaneous 2-party calls of each VCA share a 3 Mbps uplink (the FCC
// floor), and each row reports per-call quality. The closing lines state
// what this run's rows show, then the paper's §3 caution as the paper's
// claim: the model need not reproduce it for these households.
func Example_broadband() {
	fmt.Println("FCC broadband floor: 25 Mbps down / 3 Mbps up")
	fmt.Println("simultaneous 2-party calls sharing the 3 Mbps uplink:")
	fmt.Println()

	cells, degraded := 0, 0
	for _, mk := range []func() *vcalab.Profile{vcalab.Meet, vcalab.Teams, vcalab.Zoom} {
		prof := mk()
		fmt.Printf("%s:\n", prof.Name)
		for nCalls := 1; nCalls <= 3; nCalls++ {
			perCall, freezeRatio := householdCalls(mk, nCalls)
			verdict := "ok"
			if freezeRatio > 0.02 {
				verdict = "degraded"
				degraded++
			}
			cells++
			fmt.Printf("  %d call(s): %.2f Mbps per call upstream, %.1f%% freezes -> %s\n",
				nCalls, perCall, 100*freezeRatio, verdict)
		}
		fmt.Println()
	}
	if degraded == 0 {
		fmt.Println("This run: every household stays under 2% freezes, up to three calls.")
	} else {
		fmt.Printf("This run: %d of %d households freeze more than 2%% of the time.\n", degraded, cells)
	}
	fmt.Println("The paper's caution (§3), from its measurements, not this run:")
	fmt.Println("a 25/3 connection may not suffice even for two simultaneous video calls.")
	// Output:
	// FCC broadband floor: 25 Mbps down / 3 Mbps up
	// simultaneous 2-party calls sharing the 3 Mbps uplink:
	//
	// meet:
	//   1 call(s): 1.02 Mbps per call upstream, 0.0% freezes -> ok
	//   2 call(s): 0.94 Mbps per call upstream, 0.4% freezes -> ok
	//   3 call(s): 0.86 Mbps per call upstream, 1.3% freezes -> ok
	//
	// teams:
	//   1 call(s): 1.53 Mbps per call upstream, 0.0% freezes -> ok
	//   2 call(s): 1.23 Mbps per call upstream, 0.0% freezes -> ok
	//   3 call(s): 0.81 Mbps per call upstream, 1.3% freezes -> ok
	//
	// zoom:
	//   1 call(s): 0.86 Mbps per call upstream, 0.0% freezes -> ok
	//   2 call(s): 0.86 Mbps per call upstream, 0.0% freezes -> ok
	//   3 call(s): 0.81 Mbps per call upstream, 1.5% freezes -> ok
	//
	// This run: every household stays under 2% freezes, up to three calls.
	// The paper's caution (§3), from its measurements, not this run:
	// a 25/3 connection may not suffice even for two simultaneous video calls.
}

// householdCalls starts nCalls calls behind one 3 Mbps uplink and returns
// the mean per-call upstream rate and the worst receiver freeze ratio.
func householdCalls(mk func() *vcalab.Profile, nCalls int) (perCallMbps, worstFreeze float64) {
	eng := vcalab.NewEngine(7)
	lab := vcalab.NewLab(eng, 3e6, 25e6)
	var calls []*vcalab.Call
	for i := 0; i < nCalls; i++ {
		c1 := lab.ClientHost(fmt.Sprintf("home%d", i))
		c2 := lab.RemoteHost(fmt.Sprintf("far%d", i), vcalab.RemoteDelay)
		sfu := lab.RemoteHost(fmt.Sprintf("sfu%d", i), vcalab.SFUDelay)
		call := vcalab.NewCall(eng, mk(), sfu,
			[]*vcalab.Host{c1, c2}, vcalab.CallOptions{Seed: int64(100 + i)})
		call.Start()
		calls = append(calls, call)
	}
	dur := 120 * time.Second
	eng.RunUntil(dur)
	var sum float64
	for _, call := range calls {
		call.Stop()
		sum += call.C1().UpMeter.MeanRateMbps(30*time.Second, dur)
		// The far receiver's freeze ratio reflects uplink health.
		fr := call.Clients[1].Receiver(call.C1().Name).FreezeRatio()
		if fr > worstFreeze {
			worstFreeze = fr
		}
	}
	return sum / float64(nCalls), worstFreeze
}
