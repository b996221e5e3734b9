package experiment

import (
	"fmt"
	"io"
	"time"

	"vcalab/internal/stats"
	"vcalab/internal/vca"
)

// ImpairmentConfig drives the extension experiment the paper lists as
// future work (§8): VCA behaviour under random loss, added latency and
// jitter on the access link — impairments a shaped-capacity study cannot
// produce. Both directions of the access link are impaired, like a lossy
// last-mile.
type ImpairmentConfig struct {
	Profile  *vca.Profile
	LossPcts []float64     // random loss percentages to sweep, e.g. {0, 1, 2, 5}
	Jitter   time.Duration // uniform extra delay per packet
	Reps     int
	Seed     int64
	// Recovery enables packet-level loss recovery (NACK/RTX, jitter
	// buffer, TWCC feedback) on every call — the knob the loss sweep
	// exists to evaluate; see DESIGN.md §13 and EXPERIMENTS.md.
	Recovery bool
}

func (c *ImpairmentConfig) defaults() {
	if c.Reps == 0 {
		c.Reps = 3
	}
}

// ImpairmentResult is one cell of the loss/jitter sweep.
type ImpairmentResult struct {
	Profile string
	LossPct float64
	Jitter  time.Duration

	// UpMbps is C1's steady-state upstream rate: how much the client
	// congestion controller surrenders to non-congestive loss.
	UpMbps stats.Summary
	// FreezeRatio and FIRCount are the §3.2 quality metrics at the far
	// receiver of C1's video.
	FreezeRatio stats.Summary
	FIRCount    stats.Summary
}

// impairmentTrial is one repetition's raw measurements.
type impairmentTrial struct {
	up, freeze, fir float64
}

// runTrial executes one (loss, repetition) cell on a fresh engine.
func (cfg *ImpairmentConfig) runTrial(o *trialObs, lossPct float64, rep int) impairmentTrial {
	seed := cfg.Seed + int64(rep)*17389 + int64(lossPct*100)
	t := labTrial(o, seed, cfg.Profile, 2, 0, 0, vca.CallOptions{Seed: seed, Recovery: cfg.Recovery})
	defer t.release()
	t.lab.Uplink().SetImpairment(lossPct/100, cfg.Jitter)
	t.lab.Downlink().SetImpairment(lossPct/100, cfg.Jitter)
	t.start()
	t.run(shortCallDur)
	return impairmentTrial{
		up: t.call.C1().UpMeter.MeanRateMbps(warmup, shortCallDur),
		// Quality of C1's video as seen by the far client.
		freeze: t.call.Clients[1].Receiver("c1").FreezeRatio(),
		fir:    float64(t.call.C1().FIRsForMyVideo),
	}
}

// RunImpairment sweeps random loss at fixed jitter on an otherwise
// unconstrained link, all losses × reps trials in parallel.
func RunImpairment(cfg ImpairmentConfig) []ImpairmentResult {
	cfg.defaults()
	trials := sweep("impairment "+cfg.Profile.Name, nil, cfg.LossPcts, cfg.Reps, cfg.runTrial)

	var out []ImpairmentResult
	for li, ts := range trials {
		out = append(out, ImpairmentResult{
			Profile: cfg.Profile.Name, LossPct: cfg.LossPcts[li], Jitter: cfg.Jitter,
			UpMbps:      summarize(ts, func(t impairmentTrial) float64 { return t.up }),
			FreezeRatio: summarize(ts, func(t impairmentTrial) float64 { return t.freeze }),
			FIRCount:    summarize(ts, func(t impairmentTrial) float64 { return t.fir }),
		})
	}
	return out
}

// PrintImpairment writes the sweep as a table.
func PrintImpairment(w io.Writer, rs []ImpairmentResult) {
	if len(rs) == 0 {
		return
	}
	fmt.Fprintf(w, "# %s under random loss (jitter %v) — §8 extension\n", rs[0].Profile, rs[0].Jitter)
	fmt.Fprintf(w, "%8s %10s %10s %8s\n", "loss", "up(Mbps)", "freeze", "FIR")
	for _, r := range rs {
		fmt.Fprintf(w, "%7.1f%% %10.2f %10.3f %8.1f\n",
			r.LossPct, r.UpMbps.Mean, r.FreezeRatio.Mean, r.FIRCount.Mean)
	}
}
