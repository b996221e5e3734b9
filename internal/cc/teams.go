package cc

import (
	"time"
)

// TeamsConfig parameterizes TeamsCC. Start from DefaultTeamsConfig.
type TeamsConfig struct {
	Range Range

	// LossBackoff and DelayBackoff are the (very sensitive) congestion
	// triggers. Teams backs off on ~2% loss or ~60 ms of queueing, which
	// is why it is "extremely passive" against TCP (§5.2) and cedes the
	// downlink to every other VCA (§5.1, Fig 10b).
	LossBackoff  float64
	DelayBackoff time.Duration

	// BackoffFactor scales the measured receive rate on back-off.
	BackoffFactor float64

	// RampInitBpsPerSec is the additive-increase slope right after a
	// back-off; the slope doubles every teamsRampDouble until
	// RampMaxBpsPerSec.
	// This produces the slow-then-fast recovery of Fig 4a and, combined
	// with the high nominal rate, Teams' long TTR (Fig 4b, Fig 5b).
	RampInitBpsPerSec float64
	RampMaxBpsPerSec  float64
}

// teamsRampDouble is how long each additive-increase slope lasts before it
// doubles.
const teamsRampDouble = 4 * time.Second

// DefaultTeamsConfig returns the calibration for the paper's Teams client.
func DefaultTeamsConfig(r Range) TeamsConfig {
	return TeamsConfig{
		Range:             r,
		LossBackoff:       0.02,
		DelayBackoff:      60 * time.Millisecond,
		BackoffFactor:     0.8,
		RampInitBpsPerSec: 12_000,
		RampMaxBpsPerSec:  220_000,
	}
}

// TeamsCC models Microsoft Teams' conservative controller: hair-trigger
// multiplicative decrease, slow-start-like additive recovery.
type TeamsCC struct {
	cfg TeamsConfig

	rate         float64
	slope        float64
	lastRampUp   time.Duration
	lastFeedback time.Duration
}

// NewTeamsCC creates a TeamsCC controller.
func NewTeamsCC(cfg TeamsConfig) *TeamsCC {
	if cfg.BackoffFactor == 0 || cfg.RampInitBpsPerSec == 0 {
		panic("cc: TeamsConfig missing parameters; start from DefaultTeamsConfig")
	}
	return &TeamsCC{cfg: cfg, rate: cfg.Range.StartBps, slope: cfg.RampInitBpsPerSec}
}

// TargetBps implements Controller.
func (t *TeamsCC) TargetBps() float64 { return t.cfg.Range.clamp(t.rate) }

// PadRateBps implements Controller.
func (t *TeamsCC) PadRateBps(time.Duration) float64 { return 0 }

// OnFeedback implements Controller.
func (t *TeamsCC) OnFeedback(fb Feedback) {
	dt := fb.Interval.Seconds()
	if t.lastFeedback != 0 {
		dt = (fb.Now - t.lastFeedback).Seconds()
	}
	if dt <= 0 {
		dt = 0.1
	}
	t.lastFeedback = fb.Now

	if fb.LossFraction > t.cfg.LossBackoff || fb.QueueDelay > t.cfg.DelayBackoff {
		next := t.cfg.BackoffFactor * fb.ReceiveRateBps
		if next < t.rate {
			t.rate = t.cfg.Range.clamp(next)
		}
		t.slope = t.cfg.RampInitBpsPerSec
		t.lastRampUp = fb.Now
		return
	}

	// Clean interval: additive increase with accelerating slope.
	if fb.Now-t.lastRampUp >= teamsRampDouble {
		t.slope *= 2
		if t.slope > t.cfg.RampMaxBpsPerSec {
			t.slope = t.cfg.RampMaxBpsPerSec
		}
		t.lastRampUp = fb.Now
	}
	t.rate = t.cfg.Range.clamp(t.rate + t.slope*dt)
}
