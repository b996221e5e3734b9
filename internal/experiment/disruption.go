package experiment

import (
	"time"

	"vcalab/internal/scenario"
	"vcalab/internal/stats"
	"vcalab/internal/vca"
)

// DisruptionConfig describes one §4 transient-reduction experiment: a
// five-minute call whose access link is reduced to LevelMbps for 30 seconds
// starting one minute in, then restored.
type DisruptionConfig struct {
	Profile   *vca.Profile
	Dir       Direction
	LevelMbps float64
	Reps      int // paper: 4
	Seed      int64
}

// Time-to-recovery (§4, stats.TTR): how long after the disruption ends the
// ttrRoll-wide rolling median bitrate takes to return to ttrFrac of the
// pre-disruption median.
const (
	ttrFrac float64 = 0.95
	ttrRoll         = 5 * time.Second
)

// The paper's method, which every figure, CLI path and bench workload
// runs, and the fuzz harness's topology: fixed values, not options.
const (
	// §3, §6 and the §8 impairment sweep read steady-state rates from
	// warmup on.
	warmup = 30 * time.Second
	// §6 and the impairment sweep run 2-minute calls.
	shortCallDur = 120 * time.Second

	// §4: a five-minute call whose dip starts at dropAt and lasts dropLen.
	dipCallDur = 300 * time.Second
	dropAt     = 60 * time.Second
	dropLen    = 30 * time.Second

	// §5: the competitor runs [compAt, compAt+compDur) of the incumbent's
	// compCallDur; shares are measured over [shareLo, shareHi).
	compCallDur = 210 * time.Second
	compAt      = 30 * time.Second
	compDur     = 120 * time.Second
	shareLo     = 45 * time.Second
	shareHi     = 145 * time.Second

	// The scenario-fuzz harness call spans fuzzRegions regions joined by
	// fuzzInterMbps inter-region links.
	fuzzRegions   = 2
	fuzzInterMbps = 10
)

func (c *DisruptionConfig) defaults() {
	if c.Reps == 0 {
		c.Reps = 4
	}
}

// DisruptionResult carries the Fig 4/5/6 data for one (VCA, direction,
// level) condition.
type DisruptionResult struct {
	Profile   string
	Dir       Direction
	LevelMbps float64

	// Series is the across-repetition mean bitrate in the disrupted
	// direction at C1, per second (Fig 4a / 5a).
	Series stats.Series
	// FarSeries is C2's upstream bitrate (Fig 6: flat for Meet, dipping
	// for Teams during C1's downlink disruption).
	FarSeries stats.Series
	// TTR summarizes time-to-recovery across repetitions (Fig 4b / 5b).
	// Unrecovered repetitions are excluded; Recovered counts how many
	// recovered.
	TTR       stats.Summary
	Recovered int
}

// disruptionTrial is one repetition's raw measurements.
type disruptionTrial struct {
	series, far stats.Series
	ttrSec      float64
	recovered   bool
}

// newTrial builds one repetition: the two-party call, with the dip as a
// scenario timeline on C1's access link in the disrupted direction.
func (cfg *DisruptionConfig) newTrial(o *trialObs, seed int64) *trial {
	t := labTrial(o, seed, cfg.Profile, 2, 0, 0, vca.CallOptions{Seed: seed})
	ref := scenario.LinkRef{Kind: scenario.LinkClientDown, Client: "c1"}
	if cfg.Dir == Uplink {
		ref.Kind = scenario.LinkClientUp
	}
	t.timeline = scenario.New(t.eng, t.call, t.lab, scenario.Scenario{Name: "disruption",
		Events: scenario.Trace(ref, "disruption", []scenario.TraceStep{
			{At: dropAt, RateBps: cfg.LevelMbps * 1e6},
			{At: dropAt + dropLen},
		})})
	return t
}

// runTrial executes one repetition on a fresh engine.
func (cfg *DisruptionConfig) runTrial(o *trialObs, rep int) disruptionTrial {
	seed := cfg.Seed + int64(rep)*31337
	t := cfg.newTrial(o, seed)
	t.start()
	t.finish(dipCallDur)

	shaped := t.call.C1().DownMeter
	if cfg.Dir == Uplink {
		shaped = t.call.C1().UpMeter
	}
	res := disruptionTrial{series: shaped.RateMbps(), far: t.call.Clients[1].UpMeter.RateMbps()}
	ttr, ok := stats.TTR(res.series, dropAt, dropAt+dropLen, ttrRoll, ttrFrac)
	res.ttrSec, res.recovered = ttr.Seconds(), ok
	return res
}

// RunDisruption executes the experiment, repetitions in parallel.
func RunDisruption(cfg DisruptionConfig) DisruptionResult {
	cfg.defaults()
	ts := repeat("disruption "+cfg.Profile.Name+"/"+cfg.Dir.String(), nil, cfg.Reps, cfg.runTrial)
	ttr := summarizeSome(ts, func(t disruptionTrial) (float64, bool) { return t.ttrSec, t.recovered })
	return DisruptionResult{
		Profile: cfg.Profile.Name, Dir: cfg.Dir, LevelMbps: cfg.LevelMbps,
		Series:    meanSeries(ts, func(t disruptionTrial) stats.Series { return t.series }),
		FarSeries: meanSeries(ts, func(t disruptionTrial) stats.Series { return t.far }),
		TTR:       ttr,
		Recovered: ttr.N,
	}
}

// meanSeries averages one equally-binned series pointwise across
// repetitions.
func meanSeries[T any](trials []T, field func(T) stats.Series) stats.Series {
	var out stats.Series
	if len(trials) == 0 {
		return out
	}
	ss := make([]stats.Series, len(trials))
	n := field(trials[0]).Len()
	for i, t := range trials {
		ss[i] = field(t)
		n = min(n, ss[i].Len())
	}
	out = stats.Series{Times: make([]time.Duration, 0, n), Values: make([]float64, 0, n)}
	for i := 0; i < n; i++ {
		sum := 0.0
		for _, s := range ss {
			sum += s.Values[i]
		}
		out.Add(ss[0].Times[i], sum/float64(len(ss)))
	}
	return out
}

// PaperDisruptionLevels are §4's reduction levels in Mbps.
func PaperDisruptionLevels() []float64 { return []float64{0.25, 0.5, 0.75, 1.0} }
