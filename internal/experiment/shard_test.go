package experiment

import (
	"strings"
	"testing"
	"time"

	"vcalab/internal/scenario"
	"vcalab/internal/vca"
)

// TestScaleDeterministicAcrossShards: the region-sharded engine must
// reproduce the sequential sweep byte-for-byte, at every shard count and
// compounded with trial parallelism.
func TestScaleDeterministicAcrossShards(t *testing.T) {
	run := func(shards, parallel int) string {
		setParallelism(t, parallel)
		rs := RunScale(ScaleConfig{
			Profile:      vca.Meet(),
			Participants: []int{9},
			Regions:      3,
			InterMbps:    []float64{15},
			Reps:         2,
			Dur:          20 * time.Second,
			Warmup:       8 * time.Second,
			Seed:         41,
			Shards:       shards,
		})
		var sb strings.Builder
		PrintScale(&sb, rs)
		return sb.String()
	}
	base := run(1, 1)
	for _, shards := range []int{2, 3} {
		for _, parallel := range []int{1, 4} {
			if got := run(shards, parallel); got != base {
				t.Errorf("scale output at -shards %d -parallel %d differs from sequential:\n%s\nvs\n%s",
					shards, parallel, got, base)
			}
		}
	}
}

// TestScale48PartyShardedMatchesSequential is the acceptance spot-check
// on the headline workload: 48 participants over 3 regions, sharded 3
// ways, byte-identical to one engine.
func TestScale48PartyShardedMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("48-party cascade is slow; skipped in -short")
	}
	run := func(shards int) string {
		rs := RunScale(ScaleConfig{
			Profile:      vca.Teams(),
			Participants: []int{48},
			Regions:      3,
			InterMbps:    []float64{30},
			Reps:         1,
			Dur:          10 * time.Second,
			Warmup:       4 * time.Second,
			Seed:         32,
			Shards:       shards,
		})
		var sb strings.Builder
		PrintScale(&sb, rs)
		return sb.String()
	}
	seq := run(1)
	if sh := run(3); sh != seq {
		t.Errorf("48-party output differs at -shards 3:\n%s\nvs\n%s", sh, seq)
	}
}

// TestDynamicShardedMatchesSequential: dynamic trials with full
// observability capture, sharded vs sequential — the churn storm, and a
// generated scenario whose cellular episode pauses and resumes a link a
// region shard owns from the control engine. Experiment stdout must match
// byte-for-byte at any shard count and trial parallelism; metrics lines
// too, except the eng/ scheduler gauges, which aggregate per-engine
// internals (lane ratio, high-water) that legitimately depend on the
// shard count. The trace file follows a different event interleaving
// (per-shard rings merged by time) but must be deterministic for a fixed
// shard count.
func TestDynamicShardedMatchesSequential(t *testing.T) {
	for _, sc := range []scenario.Scenario{scenario.ChurnStorm(8), cellularGen()} {
		t.Run(sc.Name, func(t *testing.T) {
			run := func(shards, parallel int) (stdout, trace, metrics string) {
				setParallelism(t, parallel)
				cfg := dynTestConfig(vca.Meet())
				cfg.Scenario = sc
				cfg.Dur = 60 * time.Second
				cfg.Shards = shards
				var out, tw, mw strings.Builder
				cfg.Obs = &ObsConfig{Trace: true, Metrics: true, Interval: time.Second, TraceCap: 1 << 18}
				cfg.TraceW, cfg.MetricsW = &tw, &mw
				PrintDynamic(&out, RunDynamic(cfg))
				return out.String(), tw.String(), mw.String()
			}
			seqOut, _, seqMetrics := run(1, 1)
			if parOut, _, _ := run(1, 4); parOut != seqOut {
				t.Errorf("dynamic output differs at -parallel 4:\n-- parallel 1 --\n%s-- parallel 4 --\n%s", seqOut, parOut)
			}
			shOut, shTrace, shMetrics := run(2, 1)
			if seqOut != shOut {
				t.Errorf("dynamic output differs at -shards 2:\n-- shards 1 --\n%s-- shards 2 --\n%s", seqOut, shOut)
			}
			if got, want := stripEngineGauges(shMetrics), stripEngineGauges(seqMetrics); got != want {
				t.Error("non-scheduler metrics lines differ between sharded and sequential runs")
			}
			if !strings.Contains(shTrace, `"kind":"churn"`) {
				t.Error("sharded trace records no churn events")
			}
			if !strings.Contains(shTrace, `"kind":"deliver"`) {
				t.Error("sharded trace records no deliver events")
			}

			// Determinism within a shard count, compounded with -parallel.
			shOut2, shTrace2, shMetrics2 := run(2, 4)
			if shOut2 != shOut || shTrace2 != shTrace || shMetrics2 != shMetrics {
				t.Error("sharded capture not deterministic across reruns / trial parallelism")
			}
		})
	}
}

// stripEngineGauges drops the eng/ scheduler gauge lines from a metrics
// JSONL capture, leaving link, call and getStats lines.
func stripEngineGauges(s string) string {
	var sb strings.Builder
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, `"name":"eng/`) {
			continue
		}
		sb.WriteString(line)
		sb.WriteByte('\n')
	}
	return sb.String()
}
