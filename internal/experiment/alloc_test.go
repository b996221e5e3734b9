package experiment

import (
	"runtime"
	"testing"
	"time"

	"vcalab/internal/race"
	"vcalab/internal/reuse"
	"vcalab/internal/vca"
)

// TestTrialAllocBudgets holds what one trial of the two commonest shapes
// in the paper suite allocates — a static `-quick` cell, whose C1 is the one
// getStats subscriber, and a competition cell, whose iPerf3 flow draws its
// segments and acks from a pool — one recovery-on churn trial, whose
// rejoins take drained RTX rings back from the process-wide stash, and one
// 48-party scale trial, whose 1.3 M frame-latency samples fill run tables
// of about 8 000 distinct values a region, to 1.1× the measured value, the
// recovery-on trial to 1.05× (all repeat to under 1%). Each of these starts
// cold: reuse.Drop empties every free list, so no cell leans on what an
// earlier cell or test released. Each warm cell runs the cell before it
// again, on the engine, host packet pools, client RNGs, getStats samples,
// rings, send histories, TWCC recorders and region pools that one released
// (DESIGN.md §7), to the same slack.
//
// Per-second samples on the unread client put either paper cell over; a
// boxed tcp payload per packet costs the competition cell eight times over;
// a fresh ring per rejoin puts the churn cell over; keeping every latency
// sample puts the scale cell over. A trial that hands back no engine, no
// host pools, no RNGs or no sample buffer puts the warm static cell over;
// one that hands back no host pools puts the warm competition cell over;
// one that hands back no engine, no host pools, no RNGs or no TWCC
// recorders puts the warm churn cell over.
// Growing the meters' bins one append at a time, not a page at a time, puts
// the competition cell over; growing the latency run tables by doubling and
// reading them through a merged copy puts the churn and scale cells over; an
// 80-byte MediaPacket, which every RTX ring slot keeps alive, puts the churn
// cell over.
func TestTrialAllocBudgets(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates")
	}
	setParallelism(t, 1)
	churn := func() { RunDynamic(churnRecoveryConfig()) }
	static := func() {
		RunStatic(StaticConfig{Profile: vca.Meet(), Dir: Uplink, CapsMbps: []float64{1}, Reps: 1, Dur: 80 * time.Second, Seed: 1})
	}
	competition := func() {
		RunCompetition(CompetitionConfig{Incumbent: vca.Zoom(), Kind: CompIPerf, LinkMbps: 2, Reps: 1, Seed: 1})
	}
	cells := []struct {
		name             string
		run              func()
		warm             bool    // run straight after the cell before it, on what that cell released
		measured, parent float64 // MB: at this budget's writing, and at its parent commit
		slack            float64 // the budget is slack × measured
	}{
		{"static meet uplink 1 Mbps 80 s", static,
			false, 0.096, 0.095, 1.1}, // parent: host pools held inline
		{"static meet uplink 1 Mbps 80 s, warm", static,
			true, 0.037, 0.092, 1.1}, // parent: a trial handed on only its region pools
		{"zoom vs iperf3 2 Mbps", competition,
			false, 0.187, 0.186, 1.1}, // parent: host pools held inline
		{"zoom vs iperf3 2 Mbps, warm", competition,
			true, 0.123, 0.179, 1.1}, // parent: a trial handed on only its region pools
		{"zoom churn-storm 8p/2r 10 Mbps recovery on", churn,
			false, 2.341, 2.193, 1.05}, // parent: history slots packed into 8 bytes
		{"zoom churn-storm 8p/2r 10 Mbps recovery on, warm", churn,
			true, 0.403, 0.425, 1.05}, // parent: a trial handed on no TWCC recorders
		{"meet scale 48p/3r 20 Mbps", func() {
			RunScale(ScaleConfig{Profile: vca.Meet(), Participants: []int{48}, Regions: 3, InterMbps: []float64{20},
				Reps: 1, Dur: 30 * time.Second, Warmup: 10 * time.Second, Seed: 1})
		}, false, 3.296, 3.291, 1.1}, // parent: host pools held inline
	}
	for _, c := range cells {
		if !c.warm {
			reuse.Drop()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c.run()
		runtime.ReadMemStats(&after)
		got := float64(after.TotalAlloc-before.TotalAlloc) / 1e6
		if budget := c.slack * c.measured; got > budget {
			t.Errorf("%s: allocated %.3f MB, budget %.3f (%.2f × %.3f; the parent commit allocated %.3f)", c.name, got, budget, c.slack, c.measured, c.parent)
		} else {
			t.Logf("%s: allocated %.3f MB", c.name, got)
		}
	}
}
