package experiment

import (
	"time"

	"vcalab/internal/codec"
	"vcalab/internal/stats"
	"vcalab/internal/vca"
)

// Direction selects which side of the access link is shaped.
type Direction int

// Shaping directions.
const (
	Uplink Direction = iota
	Downlink
)

func (d Direction) String() string {
	if d == Uplink {
		return "uplink"
	}
	return "downlink"
}

// StaticConfig describes one §3 sweep condition set.
type StaticConfig struct {
	Profile  *vca.Profile
	Dir      Direction
	CapsMbps []float64 // 0 = unconstrained
	Reps     int       // paper: 5
	Dur      time.Duration
	Seed     int64
}

func (c *StaticConfig) defaults() {
	if c.Reps == 0 {
		c.Reps = 5
	}
	if c.Dur == 0 {
		c.Dur = 150 * time.Second // the paper's 2.5-minute calls
	}
}

// StaticResult is one (VCA, direction, capacity) cell of Figs 1–3/Table 2.
type StaticResult struct {
	Profile      string
	Dir          Direction
	CapacityMbps float64

	// MedianMbps summarizes, across repetitions, the median bitrate in
	// the shaped direction (sent for uplink, received for downlink) —
	// the y-axis of Fig 1.
	MedianMbps stats.Summary
	// MeanUp / MeanDown are steady-state mean rates (Table 2).
	MeanUp, MeanDown stats.Summary

	// Out / In are median encode parameters from the WebRTC-stats
	// emulation (Fig 2): Out for the sent stream, In for the received.
	Out, In codec.EncodeParams

	// FreezeRatio is freeze time / call time at the receiver (Fig 3a).
	FreezeRatio stats.Summary
	// FIRCount is FIRs received for C1's outbound video (Fig 3b).
	FIRCount stats.Summary
}

// staticTrial is one repetition's raw measurements.
type staticTrial struct {
	median, up, down, freeze, fir float64
	out, in                       codec.EncodeParams
}

// runTrial executes one (capacity, repetition) cell on a fresh engine. It
// is pure: everything it touches is derived from cfg and its arguments.
func (cfg *StaticConfig) runTrial(o *trialObs, capMbps float64, rep int) staticTrial {
	seed := cfg.Seed + int64(rep)*104729 + int64(capMbps*1000)
	var bps [2]float64 // by Direction; the other side stays unconstrained
	bps[cfg.Dir] = max(capMbps, 0) * 1e6
	t := labTrial(o, seed, cfg.Profile, 2, bps[Uplink], bps[Downlink], vca.CallOptions{Seed: seed})
	c1 := t.call.C1()
	rec := c1.RecordStats() // getStats on the instrumented client (§3.2)
	t.start()
	t.finish(cfg.Dur)

	shaped := c1.DownMeter
	if cfg.Dir == Uplink {
		shaped = c1.UpMeter
	}
	return staticTrial{
		median: stats.Median(shaped.RateMbps().Slice(warmup, cfg.Dur).Values),
		up:     c1.UpMeter.MeanRateMbps(warmup, cfg.Dur),
		down:   c1.DownMeter.MeanRateMbps(warmup, cfg.Dur),
		freeze: c1.Receiver("c2").FreezeRatio(),
		fir:    float64(c1.FIRsForMyVideo),
		out:    rec.MedianOut(warmup, cfg.Dur),
		in:     rec.MedianIn(warmup, cfg.Dur),
	}
}

// RunStatic executes the sweep and returns one result per capacity.
func RunStatic(cfg StaticConfig) []StaticResult {
	cfg.defaults()
	trials := sweep("static "+cfg.Profile.Name+"/"+cfg.Dir.String(), nil, cfg.CapsMbps, cfg.Reps, cfg.runTrial)

	var out []StaticResult
	for ci, ts := range trials {
		out = append(out, StaticResult{
			Profile: cfg.Profile.Name, Dir: cfg.Dir, CapacityMbps: cfg.CapsMbps[ci],
			MedianMbps:  summarize(ts, func(t staticTrial) float64 { return t.median }),
			MeanUp:      summarize(ts, func(t staticTrial) float64 { return t.up }),
			MeanDown:    summarize(ts, func(t staticTrial) float64 { return t.down }),
			FreezeRatio: summarize(ts, func(t staticTrial) float64 { return t.freeze }),
			FIRCount:    summarize(ts, func(t staticTrial) float64 { return t.fir }),
			Out:         medianParams(ts, func(t staticTrial) codec.EncodeParams { return t.out }),
			In:          medianParams(ts, func(t staticTrial) codec.EncodeParams { return t.in }),
		})
	}
	return out
}

// medianParams is the per-parameter median across repetitions of one
// encode-parameter measurement.
func medianParams(trials []staticTrial, field func(staticTrial) codec.EncodeParams) codec.EncodeParams {
	return codec.EncodeParams{
		FPS:   summarize(trials, func(t staticTrial) float64 { return field(t).FPS }).Median,
		QP:    summarize(trials, func(t staticTrial) float64 { return field(t).QP }).Median,
		Width: int(summarize(trials, func(t staticTrial) float64 { return float64(field(t).Width) }).Median),
	}
}

// PaperCaps is the paper's shaping grid: {0.3..1.5 step 0.1, 2, 5, 10} Mbps.
func PaperCaps() []float64 {
	caps := []float64{}
	for c := 0.3; c <= 1.51; c += 0.1 {
		caps = append(caps, float64(int(c*10+0.5))/10)
	}
	return append(caps, 2, 5, 10)
}

// Table2 runs the unconstrained-utilization measurement for a set of
// profiles (Table 2 of the paper).
func Table2(profiles []*vca.Profile, reps int, seed int64) []StaticResult {
	var out []StaticResult
	for _, p := range profiles {
		out = append(out, RunStatic(StaticConfig{
			Profile: p, Dir: Uplink, CapsMbps: []float64{0}, Reps: reps, Seed: seed,
		})...)
	}
	return out
}
