package experiment

import (
	"fmt"
	"io"
	"time"

	"vcalab/internal/runner"
	"vcalab/internal/scenario"
	"vcalab/internal/stats"
	"vcalab/internal/vca"
)

// DynamicConfig drives the dynamic-scenario experiment: one declarative
// scenario timeline (internal/scenario) replayed against a cascaded call,
// reps trials in parallel. Where the static sweeps hold the lab fixed and
// step a parameter, this workload holds the parameters fixed and lets the
// *conditions* change mid-call — churn storms, WAN capacity cliffs,
// region partitions, trace replay — measuring how each VCA rides through
// and recovers from every event.
type DynamicConfig struct {
	Profile  *vca.Profile
	Scenario scenario.Scenario
	// Participants is the roster size ("c1".."cN", round-robin across
	// regions; default 12).
	Participants int
	// Regions is the number of SFU sites (default 3).
	Regions int
	// InterMbps is the capacity of every directed inter-region link
	// (default 20).
	InterMbps float64
	Reps      int
	Dur       time.Duration
	Warmup    time.Duration
	Seed      int64
	// Shards selects intra-trial region-sharded parallel execution
	// (<= 1 runs each trial on one engine). The experiment's stdout is
	// identical for every value; trace and engine-internal metrics lines
	// are deterministic per shard count but not identical across counts
	// (see DESIGN.md §12). Compounds with the trial parallelism.
	Shards int
	// Recovery enables packet-level loss recovery (NACK/RTX, jitter
	// buffer, TWCC feedback) on every call; see DESIGN.md §13. Output
	// stays byte-identical at any parallelism × Shards for either value.
	Recovery bool

	// Obs, when non-nil, is this run's observability capture in place of
	// the package default (SetCapture). TraceW/MetricsW receive every
	// repetition's JSONL stream in rep order once the sweep's pool
	// drains, so these files too are byte-identical at any parallelism.
	Obs      *ObsConfig
	TraceW   io.Writer
	MetricsW io.Writer
}

func (c *DynamicConfig) defaults() {
	if c.Participants == 0 {
		c.Participants = 12
	}
	if c.Regions == 0 {
		c.Regions = 3
	}
	if c.InterMbps == 0 {
		c.InterMbps = 20
	}
	if c.Reps == 0 {
		c.Reps = 3
	}
	if c.Dur == 0 {
		c.Dur = 90 * time.Second
	}
	if c.Warmup == 0 {
		c.Warmup = 15 * time.Second
	}
}

// EventRecovery reports recovery after one scenario event marked Recover:
// in how many repetitions the instrumented client's 5 s rolling-median
// rate returned to 80% of its median over [Warmup, first scenario event),
// and how long that took. §4's TTR differs: 95% of the [0, dip) median.
type EventRecovery struct {
	Label string
	At    time.Duration
	// Recovered counts repetitions that recovered within the run; TTRSec
	// summarizes recovery times (seconds) over those repetitions.
	Recovered int
	TTRSec    stats.Summary
}

// DynamicResult aggregates one (profile, scenario) condition.
type DynamicResult struct {
	Profile   string
	Scenario  string
	N         int
	Regions   int
	InterMbps float64

	// DownMbps is C1's mean received rate post-warmup (events included:
	// this is throughput *through* the scenario, not steady state).
	DownMbps stats.Summary
	// FreezeRatio is the mean freeze ratio across every (receiver,
	// displayed origin) pair, all clients.
	FreezeRatio stats.Summary
	// LatP50Ms/LatP95Ms/LatP99Ms are end-to-end frame latency
	// percentiles across all clients, in ms, over the frames arriving
	// from Warmup on; N counts the repetitions any such frame reached.
	LatP50Ms, LatP95Ms, LatP99Ms stats.Summary
	// Events reports recovery after each Recover-marked scenario event,
	// in timeline order.
	Events []EventRecovery
}

// dynamicTrial is one repetition's raw measurements.
type dynamicTrial struct {
	down, freeze float64
	lat          frameLatency
	// recovered[i]/ttrSec[i] follow the scenario's recovery points.
	recovered []bool
	ttrSec    []float64
}

// scenarioSalt decorrelates trial seeds across scenarios with the same
// base seed (an FNV-1a hash of the scenario name; stable across runs).
func scenarioSalt(name string) int64 {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	return int64(h)
}

// runTrial executes one repetition on a fresh trial.
func (cfg *DynamicConfig) runTrial(o *trialObs, rep int) dynamicTrial {
	seed := runner.Seed(cfg.Seed+scenarioSalt(cfg.Scenario.Name), rep)
	t := newMeshTrial(o, seed, cfg.Profile, cfg.Participants, cfg.Regions, cfg.InterMbps, cfg.Shards, cfg.Recovery)
	defer t.release()
	call := t.call
	t.timeline = scenario.New(t.eng, call, scenario.MeshLinks(t.mesh.Mesh), cfg.Scenario)
	call.SampleFrameLatency(cfg.Warmup)
	t.start()
	t.run(cfg.Dur)

	res := dynamicTrial{
		down:   call.C1().DownMeter.MeanRateMbps(cfg.Warmup, cfg.Dur),
		freeze: call.MeanFreezeRatio(),
	}
	res.lat = readFrameLatency(call)

	// Recovery after each marked event: time until C1's 5 s rolling-median
	// rate returns to 80% of its median over [Warmup, first scenario
	// event) — measured in the direction the event impairs (an event
	// shaping C1's uplink is judged on C1's upload rate; everything else
	// on its download).
	points := cfg.Scenario.RecoveryPoints()
	if len(points) == 0 {
		return res
	}
	down := call.C1().DownMeter.RateMbps()
	up := call.C1().UpMeter.RateMbps()
	preStart, preEnd := cfg.Warmup, points[0].At
	for _, ev := range cfg.Scenario.Events {
		if ev.At < preEnd {
			preEnd = ev.At
		}
	}
	if preEnd <= preStart {
		// The scenario starts inside the warmup; fall back to whatever
		// pre-event window exists rather than an empty slice.
		preStart = preEnd / 2
	}
	nominalDown := stats.Median(down.Slice(preStart, preEnd).Values)
	nominalUp := stats.Median(up.Slice(preStart, preEnd).Values)
	c1 := call.C1().Name
	for _, ev := range points {
		series, nominal := down, nominalDown
		if ev.Op == scenario.OpShape && ev.Ref.Kind == scenario.LinkClientUp && ev.Ref.Client == c1 {
			series, nominal = up, nominalUp
		}
		ttr, ok := stats.RecoveryAfter(series, ev.At, 5*time.Second, 0.8*nominal)
		res.recovered = append(res.recovered, ok)
		res.ttrSec = append(res.ttrSec, ttr.Seconds())
	}
	return res
}

// RunDynamic replays the configured scenario against the configured call,
// Reps repetitions in parallel, and aggregates over the ordered results —
// output is byte-identical at any parallelism.
func RunDynamic(cfg DynamicConfig) DynamicResult {
	cfg.defaults()
	ts := repeat("dynamic "+cfg.Profile.Name+"/"+cfg.Scenario.Name,
		newCapture(cfg.Obs, cfg.TraceW, cfg.MetricsW), cfg.Reps, cfg.runTrial)

	res := DynamicResult{
		Profile: cfg.Profile.Name, Scenario: cfg.Scenario.Name,
		N: cfg.Participants, Regions: cfg.Regions, InterMbps: cfg.InterMbps,
		DownMbps:    summarize(ts, func(t dynamicTrial) float64 { return t.down }),
		FreezeRatio: summarize(ts, func(t dynamicTrial) float64 { return t.freeze }),
	}
	res.LatP50Ms, res.LatP95Ms, res.LatP99Ms = summarizeLatency(ts, func(t dynamicTrial) frameLatency { return t.lat })
	for pi, ev := range cfg.Scenario.RecoveryPoints() {
		ttr := summarizeSome(ts, func(t dynamicTrial) (float64, bool) { return t.ttrSec[pi], t.recovered[pi] })
		res.Events = append(res.Events, EventRecovery{Label: ev.Label, At: ev.At, Recovered: ttr.N, TTRSec: ttr})
	}
	return res
}

// PrintDynamic writes one dynamic-scenario result as a paper-style block.
func PrintDynamic(w io.Writer, r DynamicResult) {
	fmt.Fprintf(w, "# %s dynamic scenario %s — %dp/%dr, inter %.0f Mbps\n",
		r.Profile, r.Scenario, r.N, r.Regions, r.InterMbps)
	fmt.Fprintf(w, "%12s %8s %22s\n", "down(Mbps)", "freeze", "lat ms p50/p95/p99")
	fmt.Fprintf(w, "%7.2f ±%.1f %8.3f %8.1f/%6.1f/%6.1f\n",
		r.DownMbps.Mean, r.DownMbps.CI90, r.FreezeRatio.Mean,
		r.LatP50Ms.Mean, r.LatP95Ms.Mean, r.LatP99Ms.Mean)
	for _, ev := range r.Events {
		label := ev.Label
		if label == "" {
			label = "event"
		}
		fmt.Fprintf(w, "  recovery %-18s @%5.1fs  %d/%d recovered",
			label, ev.At.Seconds(), ev.Recovered, r.DownMbps.N)
		if ev.Recovered > 0 {
			fmt.Fprintf(w, "  ttr %5.1f ±%.1f s", ev.TTRSec.Mean, ev.TTRSec.CI90)
		}
		fmt.Fprintln(w)
	}
}
