package main

import (
	"math"
	"testing"

	"vcalab"
)

// checkPaperClaims asserts five claims of the paper on the typed results
// of one `-experiment all -quick -reps 1 -seed 1` pass, keyed by figure
// id. That is the grid and seed of the benchmark's paper_suite, and the
// thresholds are bench/checks.go's, which held on seeds 1-40 with margin,
// so a failure means the model moved. Rows are picked by profile, mode
// and size, never by index. bench/checks.go keeps its own copy until the
// benchmark reads Figures() (ROADMAP item 3); the claims table of ROADMAP
// item 2 promotes these predicates to internal/experiment/claims.go.
func checkPaperClaims(t *testing.T, res map[string]vcalab.FigureResults) {
	t.Helper()
	// Table 2: every VCA uses roughly 0.8-1.9 Mbps each way on an
	// unconstrained link (Teams' uplink sits at 0.80-0.82).
	table2 := res["table2"].Static
	lo, hi := math.Inf(1), 0.0
	for _, r := range table2 {
		lo = math.Min(lo, math.Min(r.MeanUp.Mean, r.MeanDown.Mean))
		hi = math.Max(hi, math.Max(r.MeanUp.Mean, r.MeanDown.Mean))
	}
	if len(table2) != 3 || lo < 0.75 || hi > 1.9 {
		t.Errorf("table2: %d cells span %.2f-%.2f Mbps, want 3 within 0.75-1.9", len(table2), lo, hi)
	}

	// share is the one cell of figure id with this incumbent and competitor.
	share := func(id, incumbent, competitor string) vcalab.CompetitionResult {
		var found []vcalab.CompetitionResult
		for _, r := range res[id].Competition {
			if r.Incumbent == incumbent && r.Competitor == competitor {
				found = append(found, r)
			}
		}
		if len(found) != 1 {
			t.Fatalf("%s: %d cells of %s vs %s, want 1", id, len(found), incumbent, competitor)
		}
		return found[0]
	}
	// Fig 11: Zoom crushes Teams on a 1 Mbps downlink.
	if r := share("fig11", "teams", "zoom"); r.ShareDown.Mean > 0.25 {
		t.Errorf("fig11: teams downlink share vs zoom %.2f, want <= 0.25", r.ShareDown.Mean)
	}
	// Fig 12: an iPerf flow starves Teams at 2 Mbps.
	if r := share("fig12", "teams", "iperf3"); r.ShareUp.Mean >= 0.2 || r.ShareDown.Mean >= 0.2 {
		t.Errorf("fig12: teams share vs iperf up %.2f down %.2f, want both < 0.2", r.ShareUp.Mean, r.ShareDown.Mean)
	}

	// Fig 15b: Zoom's gallery uplink halves from n=4 to n=5 (the ratio
	// is 0.49-0.52 across seeds).
	galleryUp := map[int]float64{}
	for _, r := range res["fig15"].Modality {
		if r.Profile == "zoom" && r.Mode == vcalab.Gallery {
			galleryUp[r.N] = r.UpMbps.Mean
		}
	}
	if n4, n5 := galleryUp[4], galleryUp[5]; n4 <= 0 || n5 >= 0.6*n4 {
		t.Errorf("fig15: zoom gallery uplink n=4 %.2f, n=5 %.2f Mbps, want n=5 below 0.6 x n=4", n4, n5)
	}

	// Fig 5b: after a downlink dip Teams takes tens of seconds to
	// recover, Zoom a few. Single levels are noisy at one repetition, so
	// the claim is on the mean over the four levels. A repetition that
	// never recovers took longer than the call.
	fig5 := res["fig5"].Disruption
	meanTTR := map[string]float64{}
	for _, r := range fig5 {
		ttr := r.TTR.Mean
		if r.Recovered == 0 {
			ttr = math.Inf(1)
		}
		meanTTR[r.Profile] += ttr / float64(len(vcalab.PaperDisruptionLevels()))
	}
	if teams, zoom := meanTTR["teams"], meanTTR["zoom"]; len(fig5) != 12 || teams < 10 || teams < 1.5*zoom {
		t.Errorf("fig5: %d cells, mean downlink TTR teams %.1f s, zoom %.1f s; want 12, teams >= 10 s and >= 1.5 x zoom",
			len(fig5), teams, zoom)
	}
}
