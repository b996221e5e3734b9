package main

import (
	"fmt"
	"math"
	"reflect"

	"vcalab"
)

// tally counts operations: trials plus the checks made on their results.
type tally struct {
	attempted, failed int
	failures          []string
}

func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.failed++
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

// checkInvariants is one operation per result struct: no float in it is
// NaN or negative (rates, ratios, latencies, recovery times and encode
// parameters are all non-negative by construction), and no freeze ratio
// exceeds 1. It reads the typed results, never the printed text.
func checkInvariants(results []any, t *tally) {
	for _, r := range results {
		bad := firstBadFloat(reflect.ValueOf(r), reflect.TypeOf(r).Name())
		t.check(bad == "", "invariant: %s", bad)
	}
}

// firstBadFloat walks v and names the first float that is NaN, negative,
// or a FreezeRatio summary above 1; "" when there is none.
func firstBadFloat(v reflect.Value, path string) string {
	switch v.Kind() {
	case reflect.Float64:
		if f := v.Float(); math.IsNaN(f) || f < 0 {
			return fmt.Sprintf("%s = %v", path, f)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() {
				continue
			}
			fp := path + "." + f.Name
			if f.Name == "FreezeRatio" {
				if s, ok := v.Field(i).Interface().(vcalab.Summary); ok && s.Max > 1 {
					return fmt.Sprintf("%s.Max = %v > 1", fp, s.Max)
				}
			}
			if bad := firstBadFloat(v.Field(i), fp); bad != "" {
				return bad
			}
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			if bad := firstBadFloat(v.Index(i), fmt.Sprintf("%s[%d]", path, i)); bad != "" {
				return bad
			}
		}
	}
	return ""
}

// checkPaperClaims is one operation per claim of the paper that the
// paper_suite pass re-derives. The thresholds held on seeds 1-40 with
// margin (see README), so a failure means the model moved.
func checkPaperClaims(p *pass, t *tally) {
	// Table 2: every VCA uses roughly 0.8-1.9 Mbps each way on an
	// unconstrained link (Teams' uplink sits at 0.80-0.82).
	lo, hi := math.Inf(1), 0.0
	for _, r := range p.table2 {
		lo = math.Min(lo, math.Min(r.MeanUp.Mean, r.MeanDown.Mean))
		hi = math.Max(hi, math.Max(r.MeanUp.Mean, r.MeanDown.Mean))
	}
	t.check(len(p.table2) == 3 && lo >= 0.75 && hi <= 1.9, "table2: cells span %.2f-%.2f Mbps, want within 0.75-1.9", lo, hi)

	// Fig 11: Zoom crushes Teams on a 1 Mbps downlink.
	t.check(p.fig11.ShareDown.Mean <= 0.25, "fig11: teams downlink share vs zoom %.2f, want <= 0.25", p.fig11.ShareDown.Mean)

	// Fig 12: an iPerf flow starves Teams at 2 Mbps.
	teams := p.fig12[1]
	t.check(teams.Incumbent == "teams" && teams.ShareUp.Mean < 0.2 && teams.ShareDown.Mean < 0.2,
		"fig12: %s share vs iperf up %.2f down %.2f, want teams < 0.2", teams.Incumbent, teams.ShareUp.Mean, teams.ShareDown.Mean)

	// Fig 15b: Zoom's gallery uplink halves from n=4 to n=5 (the ratio
	// is 0.49-0.52 across seeds).
	n4, n5 := p.zoomGal[2], p.zoomGal[3]
	t.check(n4.N == 4 && n5.N == 5 && n5.UpMbps.Mean < 0.6*n4.UpMbps.Mean,
		"fig15: zoom gallery uplink n=4 %.2f, n=5 %.2f Mbps, want n=5 below 0.6 x n=4", n4.UpMbps.Mean, n5.UpMbps.Mean)

	// Fig 5b: after a downlink dip Teams takes tens of seconds to
	// recover, Zoom a few. Single levels are noisy at one repetition, so
	// the claim is on the mean over the four levels. A repetition that
	// never recovers took longer than the call.
	mean := map[string]float64{}
	for _, r := range p.fig5 {
		ttr := r.TTR.Mean
		if r.Recovered == 0 {
			ttr = math.Inf(1)
		}
		mean[r.Profile] += ttr / float64(len(vcalab.PaperDisruptionLevels()))
	}
	t.check(len(p.fig5) == 12 && mean["teams"] >= 10 && mean["teams"] >= 1.5*mean["zoom"],
		"fig5: mean downlink TTR teams %.1f s, zoom %.1f s; want teams >= 10 s and >= 1.5 x zoom", mean["teams"], mean["zoom"])
}
