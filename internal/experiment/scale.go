package experiment

import (
	"time"

	"vcalab/internal/sim"
	"vcalab/internal/stats"
	"vcalab/internal/vca"
)

// ScaleConfig describes the large-call cascade sweep: participants spread
// round-robin across regions, one SFU per region, a full relay mesh
// between them, and the inter-region capacity as the swept constraint.
// This is the workload the paper's two-laptop lab could not reach (§8):
// dozens of participants exercising the §4.2 server behaviours across
// geo-distributed relays.
type ScaleConfig struct {
	Profile *vca.Profile
	// Participants are the call sizes to sweep (total across regions).
	Participants []int
	// Regions is the number of SFU sites (default 3).
	Regions int
	// InterMbps sweeps the capacity of every directed inter-region link.
	InterMbps []float64
	Reps      int
	Dur       time.Duration
	Warmup    time.Duration
	Seed      int64
	// Shards selects intra-trial region-sharded parallel execution
	// (<= 1 runs each trial on one engine). Output is identical for
	// every value: the sharded engine reproduces the sequential event
	// order exactly. Compounds with the trial parallelism.
	Shards int
	// Recovery enables packet-level loss recovery (NACK/RTX, jitter
	// buffer, TWCC feedback) on every call; see DESIGN.md §13.
	Recovery bool
}

func (c *ScaleConfig) defaults() {
	if len(c.Participants) == 0 {
		c.Participants = []int{12, 24, 48}
	}
	if c.Regions == 0 {
		c.Regions = 3
	}
	if len(c.InterMbps) == 0 {
		c.InterMbps = []float64{20}
	}
	if c.Reps == 0 {
		c.Reps = 3
	}
	if c.Dur == 0 {
		c.Dur = 60 * time.Second
	}
	if c.Warmup == 0 {
		c.Warmup = 20 * time.Second
	}
}

// ScaleResult is one (participants, inter-region capacity) cell of the
// cascade sweep.
type ScaleResult struct {
	Profile   string
	N         int
	Regions   int
	InterMbps float64

	// RegionDownMbps is the per-region mean received bitrate per client.
	RegionDownMbps []stats.Summary
	// FreezeRatio is the mean freeze ratio across every (receiver,
	// displayed origin) pair.
	FreezeRatio stats.Summary
	// RelayUtilMean / RelayUtilMax summarize delivered-byte utilization
	// across the directed inter-region links (post-warmup).
	RelayUtilMean, RelayUtilMax stats.Summary
	// LatP50Ms/LatP95Ms/LatP99Ms are end-to-end frame latency percentiles
	// (origin capture to receiver arrival, across all clients) in ms,
	// over the frames arriving from Warmup on; N counts the repetitions
	// any such frame reached.
	LatP50Ms, LatP95Ms, LatP99Ms stats.Summary
}

// scaleCond is one (participants, inter-region capacity) condition.
type scaleCond struct {
	n         int
	interMbps float64
}

// scaleTrial is one repetition's raw measurements.
type scaleTrial struct {
	regionDown        []float64
	freeze            float64
	utilMean, utilMax float64
	lat               frameLatency
}

// runTrial executes one (n, capacity, repetition) cell on a fresh trial.
func (cfg *ScaleConfig) runTrial(o *trialObs, cd scaleCond, rep int) scaleTrial {
	seed := cfg.Seed + int64(rep)*86243 + int64(cd.n)*613 + int64(cd.interMbps*1000)
	t := newMeshTrial(o, seed, cfg.Profile, cd.n, cfg.Regions, cd.interMbps, cfg.Shards, cfg.Recovery)
	defer t.release()
	call := t.call

	// Snapshot inter-link counters at warmup so utilization covers the
	// steady state only. In a sharded run this is a control-engine
	// global: it executes at a window barrier with every shard parked and
	// advanced to the snapshot instant, so the counters it reads are
	// exactly the sequential run's.
	links := t.mesh.InterLinks()
	startBytes := make([]uint64, len(links))
	t.eng.ScheduleHandler(cfg.Warmup, sim.HandlerFunc(func(time.Duration) {
		for i, l := range links {
			startBytes[i] = l.DeliveredBytes
		}
	}))

	call.SampleFrameLatency(cfg.Warmup)
	t.start()
	t.run(cfg.Dur)

	var res scaleTrial
	span := (cfg.Dur - cfg.Warmup).Seconds()
	var utilSum float64
	for i, l := range links {
		util := 0.0
		if l.Rate() > 0 && span > 0 {
			util = float64(l.DeliveredBytes-startBytes[i]) * 8 / (l.Rate() * span)
		}
		utilSum += util
		res.utilMax = max(res.utilMax, util)
	}
	if len(links) > 0 {
		res.utilMean = utilSum / float64(len(links))
	}

	flat := 0 // call.Clients is flattened in mesh.Clients order
	for _, hosts := range t.mesh.Clients {
		var down float64
		for range hosts {
			down += call.Clients[flat].DownMeter.MeanRateMbps(cfg.Warmup, cfg.Dur)
			flat++
		}
		if len(hosts) > 0 {
			down /= float64(len(hosts))
		}
		res.regionDown = append(res.regionDown, down)
	}
	res.freeze = call.MeanFreezeRatio()
	res.lat = readFrameLatency(call)
	return res
}

// frameLatency is one trial's p50/p95/p99 end-to-end frame latency, in ms.
// A trial no frame reached after warm-up has no latency (sampled false),
// not a latency of 0.
type frameLatency struct {
	ms      [3]float64
	sampled bool
}

// readFrameLatency reads the percentiles off a call that sampled them.
func readFrameLatency(call *vca.Call) frameLatency {
	lp := call.FrameLatencyPercentilesMs(50, 95, 99)
	if lp == nil {
		return frameLatency{}
	}
	return frameLatency{[3]float64(lp), true}
}

// summarizeLatency is the across-repetition band of each percentile, over
// the trials that sampled a frame.
func summarizeLatency[T any](trials []T, lat func(T) frameLatency) (p50, p95, p99 stats.Summary) {
	band := func(i int) stats.Summary {
		return summarizeSome(trials, func(t T) (float64, bool) { l := lat(t); return l.ms[i], l.sampled })
	}
	return band(0), band(1), band(2)
}

// RunScale executes the cascade sweep and returns one result per
// (participants, inter-capacity) condition.
func RunScale(cfg ScaleConfig) []ScaleResult {
	cfg.defaults()
	var conds []scaleCond
	for _, n := range cfg.Participants {
		for _, c := range cfg.InterMbps {
			conds = append(conds, scaleCond{n, c})
		}
	}
	trials := sweep("scale "+cfg.Profile.Name, nil, conds, cfg.Reps, cfg.runTrial)

	var out []ScaleResult
	for ci, ts := range trials {
		res := ScaleResult{
			Profile: cfg.Profile.Name, N: conds[ci].n, Regions: cfg.Regions, InterMbps: conds[ci].interMbps,
			FreezeRatio:   summarize(ts, func(t scaleTrial) float64 { return t.freeze }),
			RelayUtilMean: summarize(ts, func(t scaleTrial) float64 { return t.utilMean }),
			RelayUtilMax:  summarize(ts, func(t scaleTrial) float64 { return t.utilMax }),
		}
		res.LatP50Ms, res.LatP95Ms, res.LatP99Ms = summarizeLatency(ts, func(t scaleTrial) frameLatency { return t.lat })
		for r := 0; r < cfg.Regions; r++ {
			res.RegionDownMbps = append(res.RegionDownMbps,
				summarize(ts, func(t scaleTrial) float64 { return t.regionDown[r] }))
		}
		out = append(out, res)
	}
	return out
}
