// Package vcalab_test contains the reproduction benchmark harness: one
// benchmark per table and figure of MacMillan et al. (IMC 2021). Each
// benchmark regenerates its artifact at reduced repetition count and
// reports the headline quantities via b.ReportMetric, so `go test -bench=.`
// doubles as reproduction evidence. Full-fidelity runs (paper grids and
// repetition counts) are available from `go run ./cmd/vcabench`.
//
// Absolute numbers come from a simulator, not the authors' testbed; the
// quantities asserted in EXPERIMENTS.md are the paper's *shapes*: who wins,
// by what factor, where the crossovers fall.
package vcalab_test

import (
	"testing"
	"time"

	"vcalab"
)

// reproDur is the call length used by the benchmark harness (the paper's
// sweeps use 150 s calls; benches trim warm-up-insensitive experiments).
const reproDur = 120 * time.Second

// BenchmarkTable2Unconstrained reproduces Table 2: unconstrained up/down
// utilization of the three VCAs.
func BenchmarkTable2Unconstrained(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs := vcalab.Table2([]*vcalab.Profile{vcalab.Meet(), vcalab.Teams(), vcalab.Zoom()}, 2, 1)
		for _, r := range rs {
			b.ReportMetric(r.MeanUp.Mean, r.Profile+"_up_mbps")
			b.ReportMetric(r.MeanDown.Mean, r.Profile+"_down_mbps")
		}
	}
}

// staticBench runs a reduced Fig 1 sweep and reports medians per capacity.
func staticBench(b *testing.B, prof *vcalab.Profile, dir vcalab.Direction, caps []float64) []vcalab.StaticResult {
	var rs []vcalab.StaticResult
	for i := 0; i < b.N; i++ {
		rs = vcalab.RunStatic(vcalab.StaticConfig{
			Profile: prof, Dir: dir, CapsMbps: caps, Reps: 2, Dur: reproDur, Seed: 1,
		})
	}
	return rs
}

// BenchmarkFigure1aUplinkUtilization reproduces Fig 1a: median sent bitrate
// vs uplink capacity.
func BenchmarkFigure1aUplinkUtilization(b *testing.B) {
	caps := []float64{0.5, 1.0, 2.0, 10}
	for _, mk := range []func() *vcalab.Profile{vcalab.Meet, vcalab.Teams, vcalab.Zoom} {
		p := mk()
		rs := staticBench(b, p, vcalab.Uplink, caps)
		for _, r := range rs {
			b.ReportMetric(r.MedianMbps.Mean, r.Profile+"_at_"+mbpsLabel(r.CapacityMbps))
		}
	}
}

// BenchmarkFigure1bDownlinkUtilization reproduces Fig 1b, including Meet's
// low-copy utilization floor below 0.8 Mbps.
func BenchmarkFigure1bDownlinkUtilization(b *testing.B) {
	caps := []float64{0.5, 1.0, 2.0, 10}
	for _, mk := range []func() *vcalab.Profile{vcalab.Meet, vcalab.Teams, vcalab.Zoom} {
		p := mk()
		rs := staticBench(b, p, vcalab.Downlink, caps)
		for _, r := range rs {
			b.ReportMetric(r.MedianMbps.Mean, r.Profile+"_at_"+mbpsLabel(r.CapacityMbps))
		}
	}
}

// BenchmarkFigure1cBrowserVsNative reproduces Fig 1c: Teams-Chrome uses
// markedly less of a 1 Mbps uplink than Teams-native; Zoom's clients match.
func BenchmarkFigure1cBrowserVsNative(b *testing.B) {
	caps := []float64{1.0}
	for _, mk := range []func() *vcalab.Profile{
		vcalab.Teams, vcalab.TeamsChrome, vcalab.Zoom, vcalab.ZoomChrome,
	} {
		p := mk()
		rs := staticBench(b, p, vcalab.Uplink, caps)
		b.ReportMetric(rs[0].MedianMbps.Mean, p.Name+"_at_1mbps")
	}
}

// BenchmarkFigure2DownlinkEncoding reproduces Fig 2a-c: received-stream
// QP / FPS / width vs downlink capacity for Meet and Teams-Chrome.
func BenchmarkFigure2DownlinkEncoding(b *testing.B) {
	caps := []float64{0.3, 0.5, 1.0, 10}
	for _, mk := range []func() *vcalab.Profile{vcalab.Meet, vcalab.TeamsChrome} {
		p := mk()
		rs := staticBench(b, p, vcalab.Downlink, caps)
		for _, r := range rs {
			lbl := r.Profile + "_at_" + mbpsLabel(r.CapacityMbps)
			b.ReportMetric(r.In.QP, lbl+"_qp")
			b.ReportMetric(r.In.FPS, lbl+"_fps")
			b.ReportMetric(float64(r.In.Width), lbl+"_width")
		}
	}
}

// BenchmarkFigure2UplinkEncoding reproduces Fig 2d-f, including the Teams
// width-increase bug at 0.3 Mbps.
func BenchmarkFigure2UplinkEncoding(b *testing.B) {
	caps := []float64{0.3, 0.5, 1.0, 10}
	for _, mk := range []func() *vcalab.Profile{vcalab.Meet, vcalab.TeamsChrome} {
		p := mk()
		rs := staticBench(b, p, vcalab.Uplink, caps)
		for _, r := range rs {
			lbl := r.Profile + "_at_" + mbpsLabel(r.CapacityMbps)
			b.ReportMetric(r.Out.QP, lbl+"_qp")
			b.ReportMetric(r.Out.FPS, lbl+"_fps")
			b.ReportMetric(float64(r.Out.Width), lbl+"_width")
		}
	}
}

// BenchmarkFigure3aFreezeRatio reproduces Fig 3a: receiver freeze ratio vs
// downlink capacity (incl. Teams-Chrome's freezes on an unconstrained link).
func BenchmarkFigure3aFreezeRatio(b *testing.B) {
	caps := []float64{0.3, 1.0, 10}
	for _, mk := range []func() *vcalab.Profile{vcalab.Meet, vcalab.TeamsChrome} {
		p := mk()
		rs := staticBench(b, p, vcalab.Downlink, caps)
		for _, r := range rs {
			b.ReportMetric(r.FreezeRatio.Mean, r.Profile+"_freeze_at_"+mbpsLabel(r.CapacityMbps))
		}
	}
}

// BenchmarkFigure3bFIRCount reproduces Fig 3b: FIR counts for the uplink
// video spike at low capacities.
func BenchmarkFigure3bFIRCount(b *testing.B) {
	caps := []float64{0.3, 0.5, 2.0}
	for _, mk := range []func() *vcalab.Profile{vcalab.Meet, vcalab.TeamsChrome} {
		p := mk()
		rs := staticBench(b, p, vcalab.Uplink, caps)
		for _, r := range rs {
			b.ReportMetric(r.FIRCount.Mean, r.Profile+"_fir_at_"+mbpsLabel(r.CapacityMbps))
		}
	}
}

func disruptionBench(b *testing.B, dir vcalab.Direction, levels []float64) {
	for _, mk := range []func() *vcalab.Profile{vcalab.Meet, vcalab.Teams, vcalab.Zoom} {
		for _, level := range levels {
			p := mk()
			var r vcalab.DisruptionResult
			for i := 0; i < b.N; i++ {
				r = vcalab.RunDisruption(vcalab.DisruptionConfig{
					Profile: p, Dir: dir, LevelMbps: level, Reps: 2, Seed: 3,
				})
			}
			b.ReportMetric(r.TTR.Mean, p.Name+"_ttr_s_at_"+mbpsLabel(level))
		}
	}
}

// BenchmarkFigure4aUplinkDisruptionTrace reproduces Fig 4a's trace shape:
// the during-dip rate and Zoom's post-recovery overshoot above nominal.
func BenchmarkFigure4aUplinkDisruptionTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := vcalab.RunDisruption(vcalab.DisruptionConfig{
			Profile: vcalab.Zoom(), Dir: vcalab.Uplink, LevelMbps: 0.25, Reps: 2, Seed: 3,
		})
		pre := vcalab.Mean(r.Series.Slice(30*time.Second, 60*time.Second).Values)
		during := vcalab.Mean(r.Series.Slice(70*time.Second, 90*time.Second).Values)
		post := vcalab.Mean(r.Series.Slice(150*time.Second, 240*time.Second).Values)
		b.ReportMetric(pre, "zoom_pre_mbps")
		b.ReportMetric(during, "zoom_during_mbps")
		b.ReportMetric(post, "zoom_probe_phase_mbps")
	}
}

// BenchmarkFigure4bUplinkTTR reproduces Fig 4b: TTR vs uplink dip severity.
func BenchmarkFigure4bUplinkTTR(b *testing.B) {
	disruptionBench(b, vcalab.Uplink, []float64{0.25, 1.0})
}

// BenchmarkFigure5aDownlinkDisruptionTrace reproduces Fig 5a's trace.
func BenchmarkFigure5aDownlinkDisruptionTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := vcalab.RunDisruption(vcalab.DisruptionConfig{
			Profile: vcalab.Meet(), Dir: vcalab.Downlink, LevelMbps: 0.25, Reps: 2, Seed: 3,
		})
		during := vcalab.Mean(r.Series.Slice(70*time.Second, 90*time.Second).Values)
		b.ReportMetric(during, "meet_during_mbps")
		b.ReportMetric(r.TTR.Mean, "meet_ttr_s")
	}
}

// BenchmarkFigure5bDownlinkTTR reproduces Fig 5b: Meet and Zoom recover in
// seconds (simulcast switch / SVC layers), Teams takes 20+.
func BenchmarkFigure5bDownlinkTTR(b *testing.B) {
	disruptionBench(b, vcalab.Downlink, []float64{0.25})
}

// BenchmarkFigure6FarClientUpstream reproduces Fig 6: during C1's downlink
// dip, C2's upstream stays flat for Meet but collapses for Teams.
func BenchmarkFigure6FarClientUpstream(b *testing.B) {
	for _, mk := range []func() *vcalab.Profile{vcalab.Meet, vcalab.Teams} {
		p := mk()
		for i := 0; i < b.N; i++ {
			r := vcalab.RunDisruption(vcalab.DisruptionConfig{
				Profile: p, Dir: vcalab.Downlink, LevelMbps: 0.25, Reps: 2, Seed: 3,
			})
			pre := vcalab.Mean(r.FarSeries.Slice(30*time.Second, 60*time.Second).Values)
			during := vcalab.Mean(r.FarSeries.Slice(65*time.Second, 90*time.Second).Values)
			b.ReportMetric(during/pre, p.Name+"_far_up_retained_frac")
		}
	}
}

func competitionBench(b *testing.B, cfg vcalab.CompetitionConfig, label string) vcalab.CompetitionResult {
	var r vcalab.CompetitionResult
	for i := 0; i < b.N; i++ {
		r = vcalab.RunCompetition(cfg)
	}
	b.ReportMetric(r.ShareUp.Mean, label+"_up_share")
	b.ReportMetric(r.ShareDown.Mean, label+"_down_share")
	return r
}

// BenchmarkFigure8UplinkShare reproduces Fig 8: pairwise VCA uplink shares
// at 0.5 Mbps — Zoom incumbent takes >=75%.
func BenchmarkFigure8UplinkShare(b *testing.B) {
	pairs := []struct{ inc, comp func() *vcalab.Profile }{
		{vcalab.Meet, vcalab.Teams},
		{vcalab.Meet, vcalab.Zoom},
		{vcalab.Zoom, vcalab.Meet},
		{vcalab.Zoom, vcalab.Teams},
		{vcalab.Teams, vcalab.Zoom},
	}
	for _, pr := range pairs {
		inc, comp := pr.inc(), pr.comp()
		competitionBench(b, vcalab.CompetitionConfig{
			Incumbent: inc, Kind: vcalab.CompVCA, CompProfile: comp,
			LinkMbps: 0.5, Reps: 1, Seed: 7,
		}, inc.Name+"_vs_"+comp.Name)
	}
}

// BenchmarkFigure9SelfCompetition reproduces Fig 9: Zoom is unfair to
// itself; two Meet calls converge to a fair split.
func BenchmarkFigure9SelfCompetition(b *testing.B) {
	for _, mk := range []func() *vcalab.Profile{vcalab.Zoom, vcalab.Meet} {
		p, q := mk(), mk()
		competitionBench(b, vcalab.CompetitionConfig{
			Incumbent: p, Kind: vcalab.CompVCA, CompProfile: q,
			LinkMbps: 0.5, Reps: 1, Seed: 7,
		}, p.Name+"_vs_self")
	}
}

// BenchmarkFigure10DownlinkShare reproduces Fig 10: Teams cedes the
// downlink to every other VCA.
func BenchmarkFigure10DownlinkShare(b *testing.B) {
	for _, mk := range []func() *vcalab.Profile{vcalab.Meet, vcalab.Zoom} {
		comp := mk()
		inc := vcalab.Teams()
		competitionBench(b, vcalab.CompetitionConfig{
			Incumbent: inc, Kind: vcalab.CompVCA, CompProfile: comp,
			LinkMbps: 0.5, Reps: 1, Seed: 7,
		}, "teams_vs_"+comp.Name)
	}
}

// BenchmarkFigure11TeamsVsZoom reproduces Fig 11 at 1 Mbps: near-fair
// uplink, Teams crushed on the downlink.
func BenchmarkFigure11TeamsVsZoom(b *testing.B) {
	competitionBench(b, vcalab.CompetitionConfig{
		Incumbent: vcalab.Teams(), Kind: vcalab.CompVCA, CompProfile: vcalab.Zoom(),
		LinkMbps: 1, Reps: 1, Seed: 7,
	}, "teams_vs_zoom_1mbps")
}

// BenchmarkFigure12VCAvsTCP reproduces Fig 12: shares against an iPerf3
// flow at 2 Mbps — Meet/Zoom reach nominal, Teams is starved.
func BenchmarkFigure12VCAvsTCP(b *testing.B) {
	for _, mk := range []func() *vcalab.Profile{vcalab.Meet, vcalab.Teams, vcalab.Zoom} {
		p := mk()
		competitionBench(b, vcalab.CompetitionConfig{
			Incumbent: p, Kind: vcalab.CompIPerf, LinkMbps: 2, Reps: 1, Seed: 7,
		}, p.Name+"_vs_tcp")
	}
}

// BenchmarkFigure13ZoomBurst reproduces Fig 13: Zoom's periodic probe
// bursts depress a competing TCP flow.
func BenchmarkFigure13ZoomBurst(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := vcalab.RunCompetition(vcalab.CompetitionConfig{
			Incumbent: vcalab.Zoom(), Kind: vcalab.CompIPerf, LinkMbps: 2, Reps: 1, Seed: 7,
		})
		// Burst visibility: peak-to-median ratio of Zoom's uplink rate
		// while competing.
		window := r.IncUp.Slice(60*time.Second, 150*time.Second)
		med := vcalab.Median(window.Values)
		peak := 0.0
		for _, v := range window.Values {
			if v > peak {
				peak = v
			}
		}
		if med > 0 {
			b.ReportMetric(peak/med, "zoom_burst_peak_over_median")
		}
	}
}

// BenchmarkFigure14NetflixVsZoom reproduces Fig 14: Zoom starves Netflix at
// 0.5 Mbps despite Netflix opening many parallel connections.
func BenchmarkFigure14NetflixVsZoom(b *testing.B) {
	var r vcalab.CompetitionResult
	for i := 0; i < b.N; i++ {
		r = vcalab.RunCompetition(vcalab.CompetitionConfig{
			Incumbent: vcalab.Zoom(), Kind: vcalab.CompNetflix, LinkMbps: 0.5, Reps: 1, Seed: 7,
		})
	}
	b.ReportMetric(r.ShareDown.Mean, "zoom_down_share")
	b.ReportMetric(r.NetflixConns.Mean, "netflix_connections")
	b.ReportMetric(r.NetflixPeakParallel.Mean, "netflix_peak_parallel")
}

// BenchmarkFigure15aGalleryDownlink reproduces Fig 15a: downstream vs
// participant count in gallery mode.
func BenchmarkFigure15aGalleryDownlink(b *testing.B) {
	modalityBench(b, vcalab.Gallery, func(r vcalab.ModalityResult) (float64, string) {
		return r.DownMbps.Mean, "down"
	})
}

// BenchmarkFigure15bGalleryUplink reproduces Fig 15b: Zoom's uplink drop at
// n=5, Meet's at n=7, Teams flat.
func BenchmarkFigure15bGalleryUplink(b *testing.B) {
	modalityBench(b, vcalab.Gallery, func(r vcalab.ModalityResult) (float64, string) {
		return r.UpMbps.Mean, "up"
	})
}

// BenchmarkFigure15cSpeakerUplink reproduces Fig 15c: pinned Zoom/Meet hold
// ~1 Mbps; pinned Teams grows with every participant.
func BenchmarkFigure15cSpeakerUplink(b *testing.B) {
	modalityBench(b, vcalab.Speaker, func(r vcalab.ModalityResult) (float64, string) {
		return r.UpMbps.Mean, "up"
	})
}

func modalityBench(b *testing.B, mode vcalab.ViewMode, metric func(vcalab.ModalityResult) (float64, string)) {
	for _, mk := range []func() *vcalab.Profile{vcalab.Meet, vcalab.Teams, vcalab.Zoom} {
		p := mk()
		var rs []vcalab.ModalityResult
		for i := 0; i < b.N; i++ {
			rs = vcalab.ModalitySweep(mk(), mode, 8, 1, 11)
		}
		for _, r := range rs {
			v, dir := metric(r)
			b.ReportMetric(v, p.Name+"_"+dir+"_n"+itoa(r.N))
		}
	}
}

// --- Ablations (DESIGN.md §4): disable one mechanism and show the paper's
// shape no longer emerges. ---

// BenchmarkAblationNoSimulcast removes Meet's simulcast: downlink-dip
// recovery loses its fast stream-switch path.
func BenchmarkAblationNoSimulcast(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with := vcalab.RunDisruption(vcalab.DisruptionConfig{
			Profile: vcalab.Meet(), Dir: vcalab.Downlink, LevelMbps: 0.25, Reps: 2, Seed: 3,
		})
		crippled := vcalab.Meet()
		crippled.MediaMode = 0 // ModeSingle: one stream, no copies to switch
		without := vcalab.RunDisruption(vcalab.DisruptionConfig{
			Profile: crippled, Dir: vcalab.Downlink, LevelMbps: 0.25, Reps: 2, Seed: 3,
		})
		b.ReportMetric(with.TTR.Mean, "with_simulcast_ttr_s")
		b.ReportMetric(without.TTR.Mean, "without_simulcast_ttr_s")
	}
}

// BenchmarkAblationNoSVC removes Zoom's layered coding the same way.
func BenchmarkAblationNoSVC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with := vcalab.RunDisruption(vcalab.DisruptionConfig{
			Profile: vcalab.Zoom(), Dir: vcalab.Downlink, LevelMbps: 0.25, Reps: 2, Seed: 3,
		})
		crippled := vcalab.Zoom()
		crippled.MediaMode = 0
		crippled.ServerFECOverhead = 0
		without := vcalab.RunDisruption(vcalab.DisruptionConfig{
			Profile: crippled, Dir: vcalab.Downlink, LevelMbps: 0.25, Reps: 2, Seed: 3,
		})
		b.ReportMetric(with.TTR.Mean, "with_svc_ttr_s")
		b.ReportMetric(without.TTR.Mean, "without_svc_ttr_s")
	}
}

func mbpsLabel(m float64) string {
	switch {
	case m == 0:
		return "inf"
	case m < 1:
		return "0" + itoa(int(m*10)) + "mbps" // 0.5 -> 05mbps
	default:
		return itoa(int(m)) + "mbps"
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// sweepBench runs a reduced Fig 1a sweep (4 caps × 2 reps) at a fixed
// trial parallelism; the Sequential/Parallel pair below measures the
// speedup from the worker-pool sweep engine. Results are identical in
// both — only wall-clock differs.
func sweepBench(b *testing.B, parallel int) {
	for i := 0; i < b.N; i++ {
		vcalab.RunStatic(vcalab.StaticConfig{
			Profile: vcalab.Meet(), Dir: vcalab.Uplink,
			CapsMbps: []float64{0.5, 1, 2, 10}, Reps: 2,
			Dur: 60 * time.Second, Warmup: 20 * time.Second,
			Seed: 1, Parallel: parallel,
		})
	}
}

// BenchmarkSweepSequential is the pre-runner baseline: one trial at a time.
func BenchmarkSweepSequential(b *testing.B) { sweepBench(b, 1) }

// BenchmarkSweepParallel fans the same trials across all cores.
func BenchmarkSweepParallel(b *testing.B) { sweepBench(b, 0) }

// BenchmarkExtensionLossImpairment runs the §8 future-work extension:
// utilization under random (non-congestive) loss, where the three
// controllers' loss tolerances separate cleanly.
func BenchmarkExtensionLossImpairment(b *testing.B) {
	for _, mk := range []func() *vcalab.Profile{vcalab.Meet, vcalab.Teams, vcalab.Zoom} {
		p := mk()
		var rs []vcalab.ImpairmentResult
		for i := 0; i < b.N; i++ {
			rs = vcalab.RunImpairment(vcalab.ImpairmentConfig{
				Profile: p, LossPcts: []float64{2}, Reps: 2, Seed: 5,
			})
		}
		b.ReportMetric(rs[0].UpMbps.Mean, p.Name+"_up_at_2pct_loss")
	}
}

// scaleBench runs the cascaded large-call sweep (one condition, reduced
// duration) at a fixed trial parallelism, reporting simulated seconds per
// wall second — the sweep engine's throughput on cascade workloads.
func scaleBench(b *testing.B, parallel int) {
	const trials, dur = 4, 20 * time.Second
	start := time.Now()
	for i := 0; i < b.N; i++ {
		vcalab.RunScale(vcalab.ScaleConfig{
			Profile: vcalab.Teams(), Participants: []int{12}, Regions: 3,
			InterMbps: []float64{20}, Reps: trials,
			Dur: dur, Warmup: 8 * time.Second,
			Seed: 1, Parallel: parallel,
		})
	}
	wall := time.Since(start).Seconds()
	if wall > 0 {
		b.ReportMetric(float64(b.N)*trials*dur.Seconds()/wall, "sim_s/wall_s")
	}
}

// BenchmarkScaleCascadeSequential runs the cascade sweep one trial at a time.
func BenchmarkScaleCascadeSequential(b *testing.B) { scaleBench(b, 1) }

// BenchmarkScaleCascadeParallel fans the cascade trials across all cores.
func BenchmarkScaleCascadeParallel(b *testing.B) { scaleBench(b, 0) }
