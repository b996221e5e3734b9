package experiment

import (
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"vcalab/internal/cascade"
	"vcalab/internal/netem"
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
	// InterDelay is the one-way inter-region delay (default 40 ms).
	InterDelay time.Duration
	Reps       int
	Dur        time.Duration
	Warmup     time.Duration
	Seed       int64
	// Parallel is the trial parallelism; 0 = package default, 1 =
	// sequential. Output is identical for every value.
	Parallel int
	// Shards selects intra-trial region-sharded parallel execution
	// (<= 1 runs each trial on one engine). The experiment's stdout is
	// identical for every value; trace and engine-internal metrics lines
	// are deterministic per shard count but not identical across counts
	// (see DESIGN.md §12). Compounds with Parallel.
	Shards int
	// Recovery enables packet-level loss recovery (NACK/RTX, jitter
	// buffer, TWCC feedback) on every call; see DESIGN.md §13. Output
	// stays byte-identical at any Parallel × Shards for either value.
	Recovery bool

	// Obs enables per-trial observability capture (observe.go); nil
	// leaves the hot path untouched. TraceW/MetricsW receive every
	// repetition's JSONL stream in rep order after the sweep aggregates,
	// so these files too are byte-identical at any Parallel.
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
	if c.InterDelay == 0 {
		c.InterDelay = cascade.DefaultInterDelay
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
// in how many repetitions the instrumented client's rolling-median
// download rate returned to 80% of its pre-scenario nominal (the §4 TTR
// convention), and how long that took.
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
	// from Warmup on.
	LatP50Ms, LatP95Ms, LatP99Ms stats.Summary
	// Events reports recovery after each Recover-marked scenario event,
	// in timeline order.
	Events []EventRecovery
}

// dynamicTrial is one repetition's raw measurements.
type dynamicTrial struct {
	down, freeze        float64
	p50Ms, p95Ms, p99Ms float64
	// recovered[i]/ttrSec[i] follow the scenario's recovery points.
	recovered []bool
	ttrSec    []float64
	// obs carries the repetition's observability capture (nil when off).
	obs *trialObs
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
func (cfg *DynamicConfig) runTrial(rep int) dynamicTrial {
	seed := runner.Seed(cfg.Seed+scenarioSalt(cfg.Scenario.Name), rep)

	trial := cascade.NewTrial(seed,
		cascade.Uniform(cfg.Participants, cfg.Regions, netem.LinkConfig{RateBps: cfg.InterMbps * 1e6, Delay: cfg.InterDelay}),
		cfg.Shards, cfg.Profile, vca.CallOptions{Seed: seed, Recovery: cfg.Recovery})
	defer trial.Close()
	call := trial.Call
	tl := scenario.New(trial.Eng, call, scenario.MeshLinks(trial.Mesh), cfg.Scenario)
	to := instrumentTrial(cfg.Obs, trial, tl)
	tl.Start() // events at t<=0 (a thinned starting roster) apply before the call starts
	call.SampleFrameLatency(cfg.Warmup)
	call.Start()
	trial.RunUntil(cfg.Dur)
	call.Stop()

	var t dynamicTrial
	t.obs = to.finish(trial)
	t.down = call.C1().DownMeter.MeanRateMbps(cfg.Warmup, cfg.Dur)
	t.freeze = call.MeanFreezeRatio()
	if lp := stats.DurationPercentilesMs(call.FrameLatencies(), 50, 95, 99); lp != nil {
		t.p50Ms, t.p95Ms, t.p99Ms = lp[0], lp[1], lp[2]
	}

	// Recovery after each marked event: time until C1's 5 s rolling-median
	// rate returns to 80% of the pre-scenario nominal — measured in the
	// direction the event impairs (an event shaping C1's uplink is judged
	// on C1's upload rate; everything else on its download).
	points := cfg.Scenario.RecoveryPoints()
	if len(points) == 0 {
		return t
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
		ttr, ok := recoveryAfter(series, ev.At, nominal)
		t.recovered = append(t.recovered, ok)
		t.ttrSec = append(t.ttrSec, ttr)
	}
	return t
}

// recoveryAfter returns the seconds until the series' 5 s rolling median
// reaches 80% of nominal after at, or false if it never does in the data.
func recoveryAfter(s stats.Series, at time.Duration, nominal float64) (float64, bool) {
	if nominal <= 0 {
		return 0, false
	}
	rolled := s.Slice(at, time.Duration(math.MaxInt64)).RollingMedian(5 * time.Second)
	for i, v := range rolled.Values {
		if v >= 0.8*nominal {
			return (rolled.Times[i] - at).Seconds(), true
		}
	}
	return 0, false
}

// RunDynamic replays the configured scenario against the configured call,
// Reps repetitions in parallel, and aggregates over the ordered results —
// output is byte-identical at any Parallel.
func RunDynamic(cfg DynamicConfig) DynamicResult {
	cfg.defaults()
	trials := runner.Map(pool(cfg.Parallel, "dynamic "+cfg.Profile.Name+"/"+cfg.Scenario.Name),
		cfg.Reps, func(i int) dynamicTrial { return cfg.runTrial(i) })

	res := DynamicResult{
		Profile: cfg.Profile.Name, Scenario: cfg.Scenario.Name,
		N: cfg.Participants, Regions: cfg.Regions, InterMbps: cfg.InterMbps,
	}
	var downs, freezes, p50s, p95s, p99s []float64
	for _, t := range trials {
		downs = append(downs, t.down)
		freezes = append(freezes, t.freeze)
		p50s = append(p50s, t.p50Ms)
		p95s = append(p95s, t.p95Ms)
		p99s = append(p99s, t.p99Ms)
	}
	res.DownMbps = stats.Summarize(downs)
	res.FreezeRatio = stats.Summarize(freezes)
	res.LatP50Ms = stats.Summarize(p50s)
	res.LatP95Ms = stats.Summarize(p95s)
	res.LatP99Ms = stats.Summarize(p99s)

	for pi, ev := range cfg.Scenario.RecoveryPoints() {
		er := EventRecovery{Label: ev.Label, At: ev.At}
		var times []float64
		for _, t := range trials {
			if pi < len(t.recovered) && t.recovered[pi] {
				er.Recovered++
				times = append(times, t.ttrSec[pi])
			}
		}
		er.TTRSec = stats.Summarize(times)
		res.Events = append(res.Events, er)
	}

	if err := flushObs(&cfg, trials); err != nil {
		// A failing trace/metrics sink must not corrupt the experiment
		// result; report and keep the aggregates.
		fmt.Fprintf(os.Stderr, "vcalab: writing observability output: %v\n", err)
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
