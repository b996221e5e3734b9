package experiment

import (
	"io"
	"time"

	"vcalab/internal/vca"
)

// Figure is one artifact of the paper: Table 2 or one of Figs 1a–6, 8–15.
// Figures lists all 17; `vcabench -experiment all` runs them in order.
type Figure struct {
	ID, Desc string
	run      func(g *figureRun)
}

// Results is what a Figure measured, each slice in run order. A figure
// fills only the slices of the runners it calls.
type Results struct {
	Static      []StaticResult
	Disruption  []DisruptionResult
	Competition []CompetitionResult
	Modality    []ModalityResult
}

// Run measures the figure on the paper's grids (quick: the coarse grids
// and short calls of `vcabench -quick`), prints what `vcabench
// -experiment <ID>` prints to w, and returns the typed results.
func (f Figure) Run(quick bool, reps int, seed int64, w io.Writer) Results {
	g := &figureRun{quick: quick, reps: reps, seed: seed, w: w}
	f.run(g)
	return g.Results
}

// figureRun is one Figure.Run: its grid, its output and what it measured.
type figureRun struct {
	quick bool
	reps  int
	seed  int64
	w     io.Writer
	Results
}

func threeVCAs() []*vca.Profile { return []*vca.Profile{vca.Meet(), vca.Teams(), vca.Zoom()} }

// static is one §3 capacity sweep per profile.
func (g *figureRun) static(dir Direction, profiles ...*vca.Profile) {
	caps, dur := PaperCaps(), 150*time.Second
	if g.quick {
		caps, dur = []float64{0.3, 0.5, 1, 2, 10}, 80*time.Second
	}
	for _, p := range profiles {
		rs := RunStatic(StaticConfig{Profile: p, Dir: dir, CapsMbps: caps, Reps: g.reps, Dur: dur, Seed: g.seed})
		PrintStatic(g.w, rs)
		g.Static = append(g.Static, rs...)
	}
}

// disruption runs one §4 dip and prints it with show: its TTR row
// (PrintDisruption) or its per-second series (PrintDisruptionTrace).
func (g *figureRun) disruption(p *vca.Profile, dir Direction, level float64, reps int, show func(io.Writer, DisruptionResult)) {
	r := RunDisruption(DisruptionConfig{Profile: p, Dir: dir, LevelMbps: level, Reps: reps, Seed: g.seed})
	show(g.w, r)
	g.Disruption = append(g.Disruption, r)
}

// disruptionSet is every VCA at every paper dip level in one direction.
func (g *figureRun) disruptionSet(dir Direction) {
	for _, p := range threeVCAs() {
		for _, level := range PaperDisruptionLevels() {
			g.disruption(p, dir, level, g.reps, PrintDisruption)
		}
	}
}

// competition runs one §5 cell at the figure's seed.
func (g *figureRun) competition(cfg CompetitionConfig) {
	cfg.Seed = g.seed
	r := RunCompetition(cfg)
	PrintCompetition(g.w, r)
	g.Competition = append(g.Competition, r)
}

// vcaPairs is every incumbent × competitor VCA pair on one link.
func (g *figureRun) vcaPairs(linkMbps float64) {
	for _, inc := range threeVCAs() {
		for _, comp := range threeVCAs() {
			g.competition(CompetitionConfig{Incumbent: inc, Kind: CompVCA, CompProfile: comp, LinkMbps: linkMbps, Reps: g.reps})
		}
	}
}

// Figures is the paper's 17 artifacts in the paper's order.
func Figures() []Figure {
	fig2 := func(g *figureRun) {
		// Encoding parameters for the two stats-capable clients (§3.2).
		for _, dir := range []Direction{Downlink, Uplink} {
			g.static(dir, vca.Meet(), vca.TeamsChrome())
		}
	}
	return []Figure{
		{"table2", "Table 2: unconstrained up/down utilization per VCA", func(g *figureRun) {
			rs := Table2(threeVCAs(), g.reps, g.seed)
			PrintTable2(g.w, rs)
			g.Static = rs
		}},
		{"fig1a", "Fig 1a: median sent bitrate vs uplink capacity", func(g *figureRun) { g.static(Uplink, threeVCAs()...) }},
		{"fig1b", "Fig 1b: median received bitrate vs downlink capacity", func(g *figureRun) { g.static(Downlink, threeVCAs()...) }},
		{"fig1c", "Fig 1c: browser vs native clients (Teams/Zoom)", func(g *figureRun) {
			g.static(Uplink, vca.Teams(), vca.TeamsChrome(), vca.Zoom(), vca.ZoomChrome())
		}},
		{"fig2", "Fig 2: encode FPS/QP/width vs capacity (Meet, Teams-Chrome)", fig2},
		// Freeze ratios (downlink) and FIR counts (uplink) come out of
		// fig2's sweeps; PrintStatic includes both columns.
		{"fig3", "Fig 3: freeze ratio (3a) and FIR counts (3b)", fig2},
		{"fig4", "Fig 4: uplink disruption traces + time-to-recovery", func(g *figureRun) {
			g.disruptionSet(Uplink)
			g.disruption(vca.Zoom(), Uplink, 0.25, 1, PrintDisruptionTrace) // Fig 4a at the severest level
		}},
		{"fig5", "Fig 5: downlink disruption TTR per VCA", func(g *figureRun) { g.disruptionSet(Downlink) }},
		{"fig6", "Fig 6: far client's upstream during C1's downlink dip", func(g *figureRun) {
			for _, p := range []*vca.Profile{vca.Meet(), vca.Teams()} {
				g.disruption(p, Downlink, 0.25, 1, PrintDisruptionTrace)
			}
		}},
		{"fig8", "Fig 8: pairwise VCA uplink shares at 0.5 Mbps", func(g *figureRun) { g.vcaPairs(0.5) }},
		{"fig9", "Fig 9: self-competition shares (Zoom unfair, Meet fair); traces in Results", func(g *figureRun) {
			for _, p := range []*vca.Profile{vca.Zoom(), vca.Meet()} {
				g.competition(CompetitionConfig{Incumbent: p, Kind: CompVCA, CompProfile: p, LinkMbps: 0.5, Reps: 1})
			}
		}},
		{"fig10", "Fig 10: pairwise downlink shares (Teams cedes)", func(g *figureRun) { g.vcaPairs(0.5) }},
		{"fig11", "Fig 11: Teams vs Zoom at 1 Mbps", func(g *figureRun) {
			g.competition(CompetitionConfig{Incumbent: vca.Teams(), Kind: CompVCA, CompProfile: vca.Zoom(), LinkMbps: 1, Reps: g.reps})
		}},
		{"fig12", "Fig 12: VCA vs TCP at 2 Mbps (Teams starved)", func(g *figureRun) {
			for _, p := range threeVCAs() {
				g.competition(CompetitionConfig{Incumbent: p, Kind: CompIPerf, LinkMbps: 2, Reps: g.reps})
			}
		}},
		{"fig13", "Fig 13: Zoom's probe bursts depressing TCP", func(g *figureRun) {
			g.competition(CompetitionConfig{Incumbent: vca.Zoom(), Kind: CompIPerf, LinkMbps: 2, Reps: 1})
		}},
		{"fig14", "Fig 14: Zoom vs Netflix / Teams vs YouTube", func(g *figureRun) {
			g.competition(CompetitionConfig{Incumbent: vca.Zoom(), Kind: CompNetflix, LinkMbps: 0.5, Reps: g.reps})
			g.competition(CompetitionConfig{Incumbent: vca.Teams(), Kind: CompYouTube, LinkMbps: 0.5, Reps: g.reps})
		}},
		{"fig15", "Fig 15: up/down utilization vs participants, both modes", func(g *figureRun) {
			maxN := 8
			if g.quick {
				maxN = 5
			}
			for _, p := range threeVCAs() {
				for _, mode := range []vca.ViewMode{vca.Gallery, vca.Speaker} {
					rs := ModalitySweep(p, mode, maxN, g.reps, g.seed)
					PrintModality(g.w, rs)
					g.Modality = append(g.Modality, rs...)
				}
			}
		}},
	}
}
