package experiment

import (
	"fmt"

	"vcalab/internal/stats"
	"vcalab/internal/vca"
)

// ModalityConfig describes one §6 condition: an n-party call in a viewing
// mode, with C1 instrumented (and pinned, in speaker mode).
type ModalityConfig struct {
	Profile *vca.Profile
	N       int
	Mode    vca.ViewMode
	Reps    int // paper: 5
	Seed    int64
}

func (c *ModalityConfig) defaults() {
	if c.Reps == 0 {
		c.Reps = 5
	}
}

// ModalityResult is one point of Fig 15.
type ModalityResult struct {
	Profile string
	N       int
	Mode    vca.ViewMode

	// UpMbps / DownMbps are C1's steady-state mean rates.
	UpMbps, DownMbps stats.Summary
}

// modalityTrial is one repetition's raw measurements.
type modalityTrial struct {
	up, down float64
}

// runTrial executes one repetition on a fresh engine.
func (cfg *ModalityConfig) runTrial(o *trialObs, rep int) modalityTrial {
	seed := cfg.Seed + int64(rep)*52361 + int64(cfg.N)
	t := labTrial(o, seed, cfg.Profile, cfg.N, 0, 0, vca.CallOptions{Mode: cfg.Mode, Seed: seed})
	t.start()
	t.finish(shortCallDur)
	return modalityTrial{
		up:   t.call.C1().UpMeter.MeanRateMbps(warmup, shortCallDur),
		down: t.call.C1().DownMeter.MeanRateMbps(warmup, shortCallDur),
	}
}

// RunModality executes one (n, mode) condition, repetitions in parallel.
func RunModality(cfg ModalityConfig) ModalityResult {
	cfg.defaults()
	ts := repeat(fmt.Sprintf("modality %s n=%d", cfg.Profile.Name, cfg.N), nil, cfg.Reps, cfg.runTrial)
	return ModalityResult{
		Profile: cfg.Profile.Name, N: cfg.N, Mode: cfg.Mode,
		UpMbps:   summarize(ts, func(t modalityTrial) float64 { return t.up }),
		DownMbps: summarize(ts, func(t modalityTrial) float64 { return t.down }),
	}
}

// ModalitySweep runs n = 2..maxN for one mode.
func ModalitySweep(prof *vca.Profile, mode vca.ViewMode, maxN, reps int, seed int64) []ModalityResult {
	var out []ModalityResult
	for n := 2; n <= maxN; n++ {
		out = append(out, RunModality(ModalityConfig{
			Profile: prof, N: n, Mode: mode, Reps: reps, Seed: seed,
		}))
	}
	return out
}
