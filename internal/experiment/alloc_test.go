package experiment

import (
	"runtime"
	"testing"
	"time"

	"vcalab/internal/race"
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
// cold: two collections empty the stashes (a sync.Pool survives one), so no
// cell leans on what an earlier cell or test released. The warm cell runs
// the churn trial again straight after the cold one, on the rings, send
// histories and packet pools that one released, to 1.05×.
//
// Per-second samples on the unread client put either paper cell over; a
// boxed tcp payload per packet costs the competition cell eight times over;
// a fresh ring per rejoin puts the churn cell over; keeping every latency
// sample puts the scale cell over; a trial that releases nothing puts the
// warm cell over. Growing the meters' bins one append at a time, not a page
// at a time, puts the competition cell over; growing the latency run tables
// by doubling and reading them through a merged copy puts the churn and
// scale cells over; an 80-byte MediaPacket, which every RTX ring slot keeps
// alive, puts the churn cell over.
func TestTrialAllocBudgets(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates")
	}
	setParallelism(t, 1)
	churn := func() { RunDynamic(churnRecoveryConfig()) }
	cells := []struct {
		name             string
		run              func()
		warm             bool    // run straight after the cell before it, on what that cell released
		measured, parent float64 // MB: at this budget's writing, and at its parent commit
		slack            float64 // the budget is slack × measured
	}{
		{"static meet uplink 1 Mbps 80 s", func() {
			RunStatic(StaticConfig{Profile: vca.Meet(), Dir: Uplink, CapsMbps: []float64{1}, Reps: 1, Dur: 80 * time.Second, Seed: 1})
		}, false, 0.105, 0.108, 1.1}, // parent: meter bins grown by append
		{"zoom vs iperf3 2 Mbps", func() {
			RunCompetition(CompetitionConfig{Incumbent: vca.Zoom(), Kind: CompIPerf, LinkMbps: 2, Reps: 1, Seed: 1})
		}, false, 0.203, 0.245, 1.1}, // parent: meter bins grown by append
		{"zoom churn-storm 8p/2r 10 Mbps recovery on", churn,
			false, 2.177, 2.608, 1.05}, // parent: 80-byte media packets, 16-byte TWCC send-history slots
		{"zoom churn-storm 8p/2r 10 Mbps recovery on, warm", churn,
			true, 0.541, 2.177, 1.05}, // parent: every trial built its rings, histories and pools anew
		{"meet scale 48p/3r 20 Mbps", func() {
			RunScale(ScaleConfig{Profile: vca.Meet(), Participants: []int{48}, Regions: 3, InterMbps: []float64{20},
				Reps: 1, Dur: 30 * time.Second, Warmup: 10 * time.Second, Seed: 1})
		}, false, 3.351, 3.819, 1.1}, // parent: run tables grown by doubling, read through a merged copy
	}
	for _, c := range cells {
		if !c.warm {
			runtime.GC()
			runtime.GC()
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
