package main

import (
	"fmt"
	"io"
	"time"

	"vcalab"
)

// A workload is one fixed trial list (a pass) that a run repeats. Pass
// contents never depend on the time budget: a tighter budget runs fewer
// passes, not smaller ones, so numbers from different budgets compare.
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json).
	why string
	// parallel is the trial parallelism of every sweep in the pass; run
	// installs it as the package default, so no config sets its own.
	parallel int
	// warm runs the workload's smallest trial: the unit setup_s bills,
	// so heap growth and lazy initialisation are not billed to pass 1.
	warm func(seed int64)
	// pass runs the trial list, printing every result to p.out and
	// keeping the typed results the checks read.
	pass func(p *pass)
	// claims, when set, checks what the first pass re-derived against
	// the paper.
	claims func(p *pass, t *tally)
	// replay describes the trial the traced run drives itself for the
	// exact per-layer counts.
	replay replaySpec
	// observed, on the dynamic workloads, re-runs the pass's Meet
	// observedScenario cell with the ObsConfig capture streaming to the
	// two writers.
	observed func(seed int64, traceW, metricsW io.Writer) vcalab.DynamicResult
}

// pass is one execution of a workload's trial list.
type pass struct {
	seed int64
	out  io.Writer
	tr   *tracer // nil when tracing is off

	// Typed results, kept for the invariant and fidelity checks.
	results []any
	table2  []vcalab.StaticResult
	fig5    []vcalab.DisruptionResult
	fig11   vcalab.CompetitionResult
	fig12   []vcalab.CompetitionResult
	zoomGal []vcalab.ModalityResult
	dynamic []vcalab.DynamicResult
}

func workloads() []workload {
	return []workload{
		{
			name:     "paper_suite",
			why:      "the 17 paper ids of `vcabench -experiment all -quick`, 1 rep, sequential: sim timers, codec ticks, cc and GC dominate",
			parallel: 1,
			warm: func(seed int64) {
				vcalab.RunStatic(vcalab.StaticConfig{
					Profile: vcalab.Meet(), Dir: vcalab.Uplink, CapsMbps: quickCaps(),
					Reps: 2, Dur: quickCallDur, Seed: seed,
				})
			},
			pass:   paperSuite,
			claims: checkPaperClaims,
			replay: replaySpec{lab: true, profile: vcalab.Meet, upBps: 0.5e6, downBps: 0.5e6, dur: 80 * time.Second},
		},
		{
			name:     "scale_sweep",
			why:      "RunScale for three VCAs at 48p/3r/20 Mbps, 2 reps on 2 workers: SFU fan-out, router and links, receivers; the only parallel workload",
			parallel: 2,
			warm: func(seed int64) {
				cfg := scaleConfig(vcalab.Meet(), seed)
				cfg.Participants, cfg.Reps, cfg.Dur, cfg.Warmup = []int{24}, 1, 10*time.Second, 4*time.Second
				vcalab.RunScale(cfg)
			},
			pass: func(p *pass) {
				for _, prof := range threeVCAs() {
					cfg := scaleConfig(prof, p.seed)
					end := p.tr.span("RunScale " + prof.Name)
					rs := vcalab.RunScale(cfg)
					end()
					vcalab.PrintScale(p.out, rs)
					for _, r := range rs {
						p.results = append(p.results, r)
					}
				}
			},
			replay: replaySpec{profile: vcalab.Teams, participants: 48, regions: 3, interMbps: 20, dur: 30 * time.Second},
		},
		dynamicWorkload("dynamic_scenario", false,
			"five canned scenarios x three VCAs at 8p/2r, recovery off: scenario timelines, churn and link reshaping the static workloads never touch"),
		dynamicWorkload("recovery_on", true,
			"the dynamic_scenario trials with NACK/RTX, jitter buffers and TWCC on: the rtp layer, and packet-path changes that tax recovery"),
	}
}

func threeVCAs() []*vcalab.Profile {
	return []*vcalab.Profile{vcalab.Meet(), vcalab.Teams(), vcalab.Zoom()}
}

// The -quick grids of cmd/vcabench.
const quickCallDur = 80 * time.Second

func quickCaps() []float64 { return []float64{0.3, 0.5, 1, 2, 10} }

func scaleConfig(prof *vcalab.Profile, seed int64) vcalab.ScaleConfig {
	return vcalab.ScaleConfig{
		Profile: prof, Participants: []int{48}, Regions: 3, InterMbps: []float64{20},
		Reps: 2, Dur: 30 * time.Second, Warmup: 10 * time.Second, Seed: seed,
	}
}

// dynamicConfig is vcabench's -quick dynamic topology.
func dynamicConfig(prof *vcalab.Profile, scenario string, seed int64, recovery bool) vcalab.DynamicConfig {
	cfg := vcalab.DynamicConfig{
		Profile: prof, Participants: 8, Regions: 2, InterMbps: 10,
		Reps: 1, Dur: 80 * time.Second, Warmup: 10 * time.Second,
		Seed: seed, Recovery: recovery,
	}
	sc, err := vcalab.CannedScenario(scenario, cfg.Participants, cfg.InterMbps*1e6)
	if err != nil {
		panic(fmt.Sprintf("canned scenario %q: %v", scenario, err)) // names come from CannedScenarioNames
	}
	cfg.Scenario = sc
	return cfg
}

// observedScenario is the canned scenario the dynamic workloads warm up
// on, replay and capture: its WAN cliff fills queues and drops packets.
const observedScenario = "capacity-cliff"

func dynamicWorkload(name string, recovery bool, why string) workload {
	// No canned scenario loses a packet on an SFU-to-client leg, the only
	// place the model NACKs, so a faithful replay would report every rtp
	// count as zero. The recovery replay adds 1% loss on every link to
	// drive NACK/RTX; the passes stay exactly vcabench's.
	lossPct := 0.0
	if recovery {
		lossPct = 1
	}
	observedConfig := func(seed int64) vcalab.DynamicConfig {
		return dynamicConfig(vcalab.Meet(), observedScenario, seed, recovery)
	}
	return workload{
		name:     name,
		why:      why,
		parallel: 1,
		warm: func(seed int64) {
			vcalab.RunDynamic(observedConfig(seed))
		},
		pass: func(p *pass) {
			for _, prof := range threeVCAs() {
				for _, sc := range vcalab.CannedScenarioNames() {
					cfg := dynamicConfig(prof, sc, p.seed, recovery)
					end := p.tr.span("RunDynamic " + prof.Name + "/" + sc)
					r := vcalab.RunDynamic(cfg)
					end()
					vcalab.PrintDynamic(p.out, r)
					p.results = append(p.results, r)
					p.dynamic = append(p.dynamic, r)
				}
			}
		},
		replay: replaySpec{profile: vcalab.Meet, participants: 8, regions: 2, interMbps: 10,
			dur: 80 * time.Second, scenario: observedScenario, recovery: recovery, lossPct: lossPct},
		observed: func(seed int64, traceW, metricsW io.Writer) vcalab.DynamicResult {
			cfg := observedConfig(seed)
			cfg.Obs = &vcalab.ObsConfig{Trace: true, Metrics: true}
			cfg.TraceW, cfg.MetricsW = traceW, metricsW
			return vcalab.RunDynamic(cfg)
		},
	}
}

// paperSuite is `vcabench -experiment all -quick -reps 1`: the same
// calls in the same order printing the same bytes. fig3 repeats fig2
// and fig10 repeats fig8 because the CLI does.
func paperSuite(p *pass) {
	static := func(dir vcalab.Direction, profiles ...*vcalab.Profile) {
		for _, prof := range profiles {
			end := p.tr.span("RunStatic " + prof.Name + "/" + dir.String())
			rs := vcalab.RunStatic(vcalab.StaticConfig{
				Profile: prof, Dir: dir, CapsMbps: quickCaps(), Reps: 1, Dur: quickCallDur, Seed: p.seed,
			})
			end()
			vcalab.PrintStatic(p.out, rs)
			for _, r := range rs {
				p.results = append(p.results, r)
			}
		}
	}
	disruption := func(prof *vcalab.Profile, dir vcalab.Direction, level float64) vcalab.DisruptionResult {
		end := p.tr.span("RunDisruption " + prof.Name + "/" + dir.String())
		r := vcalab.RunDisruption(vcalab.DisruptionConfig{
			Profile: prof, Dir: dir, LevelMbps: level, Reps: 1, Seed: p.seed,
		})
		end()
		p.results = append(p.results, r)
		return r
	}
	disruptionSet := func(dir vcalab.Direction) (out []vcalab.DisruptionResult) {
		for _, prof := range threeVCAs() {
			for _, level := range vcalab.PaperDisruptionLevels() {
				r := disruption(prof, dir, level)
				vcalab.PrintDisruption(p.out, r)
				out = append(out, r)
			}
		}
		return out
	}
	competition := func(cfg vcalab.CompetitionConfig) vcalab.CompetitionResult {
		cfg.Reps, cfg.Seed = 1, p.seed
		competitor := cfg.Kind.String()
		if cfg.Kind == vcalab.CompVCA {
			competitor = cfg.CompProfile.Name
		}
		end := p.tr.span("RunCompetition " + cfg.Incumbent.Name + "/" + competitor)
		r := vcalab.RunCompetition(cfg)
		end()
		vcalab.PrintCompetition(p.out, r)
		p.results = append(p.results, r)
		return r
	}
	vcaPairs := func() {
		for _, inc := range threeVCAs() {
			for _, comp := range threeVCAs() {
				competition(vcalab.CompetitionConfig{Incumbent: inc, Kind: vcalab.CompVCA, CompProfile: comp, LinkMbps: 0.5})
			}
		}
	}
	fig2 := func() {
		for _, dir := range []vcalab.Direction{vcalab.Downlink, vcalab.Uplink} {
			static(dir, vcalab.Meet(), vcalab.TeamsChrome())
		}
	}

	figures := []struct {
		id string
		fn func()
	}{
		{"table2", func() {
			end := p.tr.span("Table2")
			p.table2 = vcalab.Table2(threeVCAs(), 1, p.seed)
			end()
			vcalab.PrintTable2(p.out, p.table2)
			for _, r := range p.table2 {
				p.results = append(p.results, r)
			}
		}},
		{"fig1a", func() { static(vcalab.Uplink, threeVCAs()...) }},
		{"fig1b", func() { static(vcalab.Downlink, threeVCAs()...) }},
		{"fig1c", func() {
			static(vcalab.Uplink, vcalab.Teams(), vcalab.TeamsChrome(), vcalab.Zoom(), vcalab.ZoomChrome())
		}},
		{"fig2", fig2},
		{"fig3", fig2},
		{"fig4", func() {
			disruptionSet(vcalab.Uplink)
			vcalab.PrintDisruptionTrace(p.out, disruption(vcalab.Zoom(), vcalab.Uplink, 0.25))
		}},
		{"fig5", func() { p.fig5 = disruptionSet(vcalab.Downlink) }},
		{"fig6", func() {
			for _, prof := range []*vcalab.Profile{vcalab.Meet(), vcalab.Teams()} {
				vcalab.PrintDisruptionTrace(p.out, disruption(prof, vcalab.Downlink, 0.25))
			}
		}},
		{"fig8", vcaPairs},
		{"fig9", func() {
			for _, prof := range []*vcalab.Profile{vcalab.Zoom(), vcalab.Meet()} {
				competition(vcalab.CompetitionConfig{Incumbent: prof, Kind: vcalab.CompVCA, CompProfile: prof, LinkMbps: 0.5})
			}
		}},
		{"fig10", vcaPairs},
		{"fig11", func() {
			p.fig11 = competition(vcalab.CompetitionConfig{
				Incumbent: vcalab.Teams(), Kind: vcalab.CompVCA, CompProfile: vcalab.Zoom(), LinkMbps: 1,
			})
		}},
		{"fig12", func() {
			for _, prof := range threeVCAs() {
				p.fig12 = append(p.fig12, competition(vcalab.CompetitionConfig{Incumbent: prof, Kind: vcalab.CompIPerf, LinkMbps: 2}))
			}
		}},
		{"fig13", func() {
			competition(vcalab.CompetitionConfig{Incumbent: vcalab.Zoom(), Kind: vcalab.CompIPerf, LinkMbps: 2})
		}},
		{"fig14", func() {
			competition(vcalab.CompetitionConfig{Incumbent: vcalab.Zoom(), Kind: vcalab.CompNetflix, LinkMbps: 0.5})
			competition(vcalab.CompetitionConfig{Incumbent: vcalab.Teams(), Kind: vcalab.CompYouTube, LinkMbps: 0.5})
		}},
		{"fig15", func() {
			for _, prof := range threeVCAs() {
				for _, mode := range []vcalab.ViewMode{vcalab.Gallery, vcalab.Speaker} {
					end := p.tr.span(fmt.Sprintf("ModalitySweep %s/%d", prof.Name, mode))
					rs := vcalab.ModalitySweep(prof, mode, 5, 1, p.seed)
					end()
					vcalab.PrintModality(p.out, rs)
					for _, r := range rs {
						p.results = append(p.results, r)
					}
					if prof.Name == "zoom" && mode == vcalab.Gallery {
						p.zoomGal = rs
					}
				}
			}
		}},
	}
	for _, f := range figures {
		fmt.Fprintf(p.out, "\n===== %s =====\n", f.id)
		end := p.tr.span(f.id)
		f.fn()
		end()
	}
}
