package experiment

import (
	"time"

	"vcalab/internal/runner"
	"vcalab/internal/sim"
	"vcalab/internal/stats"
	"vcalab/internal/vca"
)

// TraceStep is one segment of a time-varying bandwidth profile. The §4
// disruption experiment is the two-step special case; general traces let
// vcalab replay measured access-network behaviour (e.g. an LTE drive
// trace) against any VCA — the "other network profiles that represent
// other contexts, such as WiFi and cellular" the paper's §8 points to.
type TraceStep struct {
	At      time.Duration
	UpBps   float64 // 0 = unconstrained
	DownBps float64
}

// BandwidthTrace is an ordered sequence of steps.
type BandwidthTrace []TraceStep

// Apply schedules the trace's re-shaping events onto the lab.
func (tr BandwidthTrace) Apply(eng *sim.Engine, lab *Lab) {
	for _, step := range tr {
		step := step
		eng.At(step.At, func() {
			lab.SetUplink(step.UpBps)
			lab.SetDownlink(step.DownBps)
		})
	}
}

// TraceResult summarizes one VCA's ride through a bandwidth trace.
type TraceResult struct {
	Profile string

	Up, Down    stats.Series // C1 bitrates, 1 s bins
	FreezeRatio float64
	FIRCount    int
	// MeanUtilization is mean sent rate divided by mean uplink capacity
	// over constrained periods (how well the VCA tracks a moving target).
	MeanUtilization float64
}

// RunTrace plays a bandwidth trace under a 2-party call. It is a single
// trial; use RunTraces to replay one trace against several profiles in
// parallel.
func RunTrace(prof *vca.Profile, trace BandwidthTrace, dur time.Duration, seed int64) TraceResult {
	return runTraceTrial(nil, prof, trace, dur, seed)
}

// RunTraces replays a trace against each profile, one parallel trial per
// profile (parallel: 0 = package default, 1 = sequential, like the
// Parallel field on the config-driven runners). Per-profile seeds are
// derived from (seed, profile index) so results are independent of worker
// scheduling; the result slice follows input order.
func RunTraces(profs []*vca.Profile, trace BandwidthTrace, dur time.Duration, seed int64, parallel int) []TraceResult {
	return repeat("trace", parallel, nil, len(profs), func(o *trialObs, i int) TraceResult {
		return runTraceTrial(o, profs[i], trace, dur, runner.Seed(seed, i))
	})
}

// runTraceTrial is the pure single-trial body.
func runTraceTrial(o *trialObs, prof *vca.Profile, trace BandwidthTrace, dur time.Duration, seed int64) TraceResult {
	t := twoPartyTrial(o, seed, prof, 0, 0, vca.CallOptions{Seed: seed})
	trace.Apply(t.eng, t.lab)
	t.start()
	t.finish(dur)
	call := t.call

	res := TraceResult{
		Profile:     prof.Name,
		Up:          call.C1().UpMeter.RateMbps(),
		Down:        call.C1().DownMeter.RateMbps(),
		FreezeRatio: call.Clients[1].Receiver(call.C1().Name).FreezeRatio(),
		FIRCount:    call.C1().FIRsForMyVideo,
	}
	// Utilization over constrained uplink periods.
	var sentSum, capSum float64
	for i, t := range res.Up.Times {
		capBps := capacityAt(trace, t)
		if capBps <= 0 || capBps > 5e6 {
			continue // unconstrained or effectively so
		}
		sentSum += res.Up.Values[i] * 1e6
		capSum += capBps
	}
	if capSum > 0 {
		res.MeanUtilization = sentSum / capSum
	}
	return res
}

func capacityAt(trace BandwidthTrace, t time.Duration) float64 {
	capBps := 0.0
	for _, step := range trace {
		if step.At <= t {
			capBps = step.UpBps
		}
	}
	return capBps
}
