package experiment

import (
	"fmt"
	"time"

	"vcalab/internal/apps"
	"vcalab/internal/netem"
	"vcalab/internal/sim"
	"vcalab/internal/stats"
	"vcalab/internal/tcp"
	"vcalab/internal/vca"
)

// CompetitorKind selects what shares the bottleneck with the incumbent
// VCA call (§5).
type CompetitorKind int

// Competitors studied by the paper.
const (
	CompVCA CompetitorKind = iota
	CompIPerf
	CompNetflix
	CompYouTube
)

func (k CompetitorKind) String() string {
	switch k {
	case CompVCA:
		return "vca"
	case CompIPerf:
		return "iperf3"
	case CompNetflix:
		return "netflix"
	default:
		return "youtube"
	}
}

// CompetitionConfig describes one §5 experiment: an incumbent VCA call
// starts first; ~30 s later the competing application joins from F1 behind
// the same bottleneck for two minutes (Fig 7's topology).
type CompetitionConfig struct {
	Incumbent *vca.Profile
	Kind      CompetitorKind
	// CompProfile is the competing VCA's profile when Kind == CompVCA.
	CompProfile *vca.Profile
	LinkMbps    float64 // symmetric shaping, paper: {0.5,1,2,3,4,5}
	Reps        int     // paper: 3
	Seed        int64
}

func (c *CompetitionConfig) defaults() {
	if c.Reps == 0 {
		c.Reps = 3
	}
}

// CompetitionResult is one cell of Figs 8–14.
type CompetitionResult struct {
	Incumbent  string
	Competitor string
	LinkMbps   float64

	// ShareUp / ShareDown are the incumbent's fraction of bottleneck
	// bytes while the competitor was active (box values in Figs 8/10/12).
	ShareUp, ShareDown stats.Summary

	// Time series (bottleneck-tap bitrates, 1 s bins, mean across reps)
	// for the trace figures (Figs 9, 11, 13, 14a).
	IncUp, CompUp, IncDown, CompDown stats.Series

	// Netflix connection behaviour (Fig 14b).
	NetflixConns        stats.Summary
	NetflixPeakParallel stats.Summary
}

// competitionTrial is one repetition's raw measurements. The Netflix
// counters are read when the competitor stops, if it is Netflix and does.
type competitionTrial struct {
	shareUp, shareDown               float64
	incUp, compUp, incDown, compDown stats.Series
	nfConns, nfPeak                  float64
	netflix                          bool
}

// runTrial executes one repetition on a fresh engine.
func (cfg *CompetitionConfig) runTrial(o *trialObs, rep int) competitionTrial {
	var res competitionTrial
	t, measure := cfg.newTrial(o, cfg.Seed+int64(rep)*7127, &res)
	defer t.release()
	t.run(compCallDur)
	measure()
	return res
}

// newTrial builds and starts one repetition: the incumbent call behind
// the bottleneck taps, and the competitor's start and stop. measure, once
// the trial has finished, fills res from the taps.
func (cfg *CompetitionConfig) newTrial(o *trialObs, seed int64, res *competitionTrial) (t *trial, measure func()) {
	t = labTrial(o, seed, cfg.Incumbent, 2, cfg.LinkMbps*1e6, cfg.LinkMbps*1e6, vca.CallOptions{Seed: seed})
	lab, eng := t.lab, t.eng

	// Bottleneck taps: classify by which bottleneck-side host the
	// packet belongs to (what tcpdump at the clients saw).
	mIncUp, mCompUp := stats.NewMeter(time.Second), stats.NewMeter(time.Second)
	mIncDown, mCompDown := stats.NewMeter(time.Second), stats.NewMeter(time.Second)
	lab.Uplink().OnSend(func(p *netem.Packet) {
		switch p.From.Host {
		case "c1":
			mIncUp.AddBytes(eng.Now(), p.Size)
		case "f1":
			mCompUp.AddBytes(eng.Now(), p.Size)
		}
	})
	lab.Downlink().OnSend(func(p *netem.Packet) {
		switch p.To.Host {
		case "c1":
			mIncDown.AddBytes(eng.Now(), p.Size)
		case "f1":
			mCompDown.AddBytes(eng.Now(), p.Size)
		}
	})
	t.start()

	// Competitor.
	f1 := lab.ClientHost("f1")
	var stopComp func()
	eng.ScheduleHandler(compAt, sim.HandlerFunc(func(time.Duration) {
		stopComp = cfg.startCompetitor(t, f1, res)
	}))
	eng.ScheduleHandler(compAt+compDur, sim.HandlerFunc(func(time.Duration) {
		if stopComp != nil {
			stopComp()
		}
	}))
	return t, func() {
		res.shareUp = stats.Share(mIncUp.MeanRateMbps(shareLo, shareHi), mCompUp.MeanRateMbps(shareLo, shareHi))
		res.shareDown = stats.Share(mIncDown.MeanRateMbps(shareLo, shareHi), mCompDown.MeanRateMbps(shareLo, shareHi))
		res.incUp, res.compUp = mIncUp.RateMbps(), mCompUp.RateMbps()
		res.incDown, res.compDown = mIncDown.RateMbps(), mCompDown.RateMbps()
	}
}

// RunCompetition executes the experiment, repetitions in parallel.
func RunCompetition(cfg CompetitionConfig) CompetitionResult {
	cfg.defaults()
	name := cfg.Kind.String()
	if cfg.Kind == CompVCA {
		name = cfg.CompProfile.Name
	}
	ts := repeat("competition "+cfg.Incumbent.Name+" vs "+name, nil, cfg.Reps, cfg.runTrial)
	return CompetitionResult{
		Incumbent: cfg.Incumbent.Name, Competitor: name, LinkMbps: cfg.LinkMbps,
		ShareUp:   summarize(ts, func(t competitionTrial) float64 { return t.shareUp }),
		ShareDown: summarize(ts, func(t competitionTrial) float64 { return t.shareDown }),
		IncUp:     meanSeries(ts, func(t competitionTrial) stats.Series { return t.incUp }),
		CompUp:    meanSeries(ts, func(t competitionTrial) stats.Series { return t.compUp }),
		IncDown:   meanSeries(ts, func(t competitionTrial) stats.Series { return t.incDown }),
		CompDown:  meanSeries(ts, func(t competitionTrial) stats.Series { return t.compDown }),

		NetflixConns:        summarizeSome(ts, func(t competitionTrial) (float64, bool) { return t.nfConns, t.netflix }),
		NetflixPeakParallel: summarizeSome(ts, func(t competitionTrial) (float64, bool) { return t.nfPeak, t.netflix }),
	}
}

// startCompetitor launches the competing application on f1 and returns its
// stop function.
func (cfg *CompetitionConfig) startCompetitor(t *trial, f1 *netem.Host, res *competitionTrial) func() {
	lab, eng := t.lab, t.eng
	switch cfg.Kind {
	case CompVCA:
		f2 := lab.RemoteHost("f2", RemoteDelay)
		sfu2 := lab.RemoteHost("sfu2", SFUDelay)
		t.competitor = vca.NewCall(eng, cfg.CompProfile, sfu2, []*netem.Host{f1, f2}, vca.CallOptions{Seed: t.seed + 999})
		t.competitor.Start()
		return t.competitor.Stop
	case CompIPerf:
		// One upload and one download flow so a single run measures the
		// paper's uplink and downlink conditions; the cross-direction
		// ack traffic is negligible.
		srvUp := lab.RemoteHost("ipup", iperfDelay)
		srvDown := lab.RemoteHost("ipdn", iperfDelay)
		upload := tcp.NewFlow(eng, "iperf3", f1, srvUp, 5201, tcp.Config{})
		download := tcp.NewFlow(eng, "iperf3", srvDown, f1, 5202, tcp.Config{})
		upload.Start(0)
		download.Start(0)
		return func() { upload.Stop(); download.Stop() }
	case CompNetflix:
		cdn := lab.RemoteHost("nfcdn", RemoteDelay)
		nf := apps.NewNetflix(eng, f1, cdn, 7000)
		nf.Start()
		return func() {
			nf.Stop()
			res.nfConns, res.nfPeak, res.netflix = float64(nf.ConnectionsOpened), float64(nf.PeakParallel), true
		}
	default:
		cdn := lab.RemoteHost("ytcdn", RemoteDelay)
		yt := apps.NewYouTube(eng, f1, cdn, 8000)
		yt.Start()
		return yt.Stop
	}
}

// PaperCompetitionLinks are §5's symmetric link capacities in Mbps.
func PaperCompetitionLinks() []float64 { return []float64{0.5, 1, 2, 3, 4, 5} }

// CompetitionLabel renders "incumbent vs competitor @ L Mbps".
func CompetitionLabel(r CompetitionResult) string {
	return fmt.Sprintf("%s vs %s @ %g Mbps", r.Incumbent, r.Competitor, r.LinkMbps)
}
