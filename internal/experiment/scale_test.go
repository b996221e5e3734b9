package experiment

import (
	"strings"
	"testing"
	"time"

	"vcalab/internal/stats"
	"vcalab/internal/vca"
)

func TestScaleSweepShapes(t *testing.T) {
	rs := RunScale(ScaleConfig{
		Profile:      vca.Meet(),
		Participants: []int{6},
		Regions:      2,
		InterMbps:    []float64{1, 50},
		Reps:         1,
		Dur:          30 * time.Second,
		Warmup:       10 * time.Second,
		Seed:         31,
	})
	if len(rs) != 2 {
		t.Fatalf("got %d results, want 2", len(rs))
	}
	tight, wide := rs[0], rs[1]
	if len(tight.RegionDownMbps) != 2 {
		t.Fatalf("per-region summaries = %d, want 2", len(tight.RegionDownMbps))
	}
	// A 1 Mbps inter link cannot carry three remote origins: received
	// rate drops and the relay link saturates relative to 50 Mbps.
	if tight.RegionDownMbps[0].Mean >= wide.RegionDownMbps[0].Mean {
		t.Errorf("r0 down under tight inter (%.2f) should trail wide (%.2f)",
			tight.RegionDownMbps[0].Mean, wide.RegionDownMbps[0].Mean)
	}
	if tight.RelayUtilMax.Mean < 0.5 {
		t.Errorf("tight inter link utilization = %.2f, want saturated (>= 0.5)", tight.RelayUtilMax.Mean)
	}
	if wide.RelayUtilMax.Mean > 0.5 {
		t.Errorf("wide inter link utilization = %.2f, want low", wide.RelayUtilMax.Mean)
	}
	// Latency percentiles are ordered and positive; the tight link's
	// queueing shows up in the tail.
	for _, r := range rs {
		if !(r.LatP50Ms.Mean > 0 && r.LatP50Ms.Mean <= r.LatP95Ms.Mean && r.LatP95Ms.Mean <= r.LatP99Ms.Mean) {
			t.Errorf("latency percentiles disordered: p50 %.1f p95 %.1f p99 %.1f",
				r.LatP50Ms.Mean, r.LatP95Ms.Mean, r.LatP99Ms.Mean)
		}
	}
	if tight.LatP99Ms.Mean <= wide.LatP99Ms.Mean {
		t.Errorf("tail latency under tight inter (%.1f ms) should exceed wide (%.1f ms)",
			tight.LatP99Ms.Mean, wide.LatP99Ms.Mean)
	}
}

// TestScale48PartyDeterministicAcrossParallel is the acceptance check for
// the cascade subsystem: a 48-participant, 3-region call produces
// byte-identical RunScale output at any parallelism.
func TestScale48PartyDeterministicAcrossParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("48-party cascade is slow; skipped in -short")
	}
	run := func(parallel int) string {
		setParallelism(t, parallel)
		rs := RunScale(ScaleConfig{
			Profile:      vca.Teams(),
			Participants: []int{48},
			Regions:      3,
			InterMbps:    []float64{30},
			Reps:         2,
			Dur:          10 * time.Second,
			Warmup:       4 * time.Second,
			Seed:         32,
		})
		var sb strings.Builder
		PrintScale(&sb, rs)
		return sb.String()
	}
	seq := run(1)
	par := run(4)
	if seq != par {
		t.Errorf("48-party scale output differs between -parallel 1 and 4:\n%s\nvs\n%s", seq, par)
	}
	if !strings.Contains(seq, "48") || !strings.Contains(seq, "teams") {
		t.Errorf("unexpected output: %q", seq)
	}
}

func TestPrintScale(t *testing.T) {
	rs := RunScale(ScaleConfig{
		Profile:      vca.Zoom(),
		Participants: []int{4},
		Regions:      2,
		InterMbps:    []float64{10},
		Reps:         1,
		Dur:          20 * time.Second,
		Warmup:       8 * time.Second,
		Seed:         33,
	})
	var sb strings.Builder
	PrintScale(&sb, rs)
	out := sb.String()
	if !strings.Contains(out, "zoom") || !strings.Contains(out, "2 regions") {
		t.Errorf("PrintScale output: %q", out)
	}
}

// TestLatencySummarySkipsUnsampledTrials: a repetition no frame reached
// after warm-up has no latency. It is left out of the band, which N
// counts, instead of averaging in as 0 ms.
func TestLatencySummarySkipsUnsampledTrials(t *testing.T) {
	ts := []frameLatency{{ms: [3]float64{40, 80, 120}, sampled: true}, {}}
	p50, p95, p99 := summarizeLatency(ts, func(l frameLatency) frameLatency { return l })
	for i, c := range []struct {
		got  stats.Summary
		want float64
	}{{p50, 40}, {p95, 80}, {p99, 120}} {
		if c.got.N != 1 || c.got.Mean != c.want || c.got.Min != c.want {
			t.Errorf("percentile %d: N = %d, mean %v, min %v; want 1, %v, %v", i, c.got.N, c.got.Mean, c.got.Min, c.want, c.want)
		}
	}
}
