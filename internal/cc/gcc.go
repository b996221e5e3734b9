package cc

import (
	"math"
	"time"
)

// GCCConfig parameterizes a GCC instance. The zero value is not useful;
// start from DefaultGCCConfig.
type GCCConfig struct {
	Range Range

	// server selects the SFU-side mode (ServerGCCConfig). Google Meet's
	// browser client runs the overuse detector; the Meet SFU's sender
	// side behaves as a loss-based-only controller (the paper observes
	// Meet's downlink is not TCP-friendly while its uplink is, §5.2 — an
	// architectural asymmetry we model by disabling the delay detector
	// server-side). The server side instead sends WebRTC-style padding
	// probes when the rate sits far below the last known-good rate, which
	// re-upgrades the simulcast layer within seconds after a downlink
	// disruption ends (Fig 5b shows sub-10 s recovery).
	server bool

	// LossHigh is the loss fraction above which the loss-based controller
	// cuts the rate (RFC 8698-style 10%); below gccLossLow it grows.
	LossHigh float64
}

// GCC's constants. The overuse threshold gamma always adapts (Carlucci et
// al. §IV-B): it inflates when sustained queueing is observed, which is
// what keeps GCC from starving under loss-based TCP.
const (
	// gccBeta is the multiplicative decrease factor applied to the
	// measured receive rate on overuse (WebRTC default 0.85).
	gccBeta float64 = 0.85
	// gccIncreasePerSec is the multiplicative increase factor per second
	// in the increase state (WebRTC's eta=1.08 per response-time).
	gccIncreasePerSec float64 = 1.08
	// gccInitialThreshold is the starting overuse threshold gamma.
	gccInitialThreshold = 35 * time.Millisecond
	// gccLossLow is the loss fraction below which the loss-based
	// controller grows the rate (RFC 8698-style 2%).
	gccLossLow float64 = 0.02
)

// DefaultGCCConfig returns the client-side (Meet browser) configuration.
func DefaultGCCConfig(r Range) GCCConfig {
	return GCCConfig{Range: r, LossHigh: 0.10}
}

// ServerGCCConfig returns the SFU-side configuration: loss-based only,
// with recovery probing, modeling the behaviour the paper observed for
// the Meet relay (aggressive downstream, fast post-disruption upgrades).
func ServerGCCConfig(r Range) GCCConfig {
	cfg := DefaultGCCConfig(r)
	cfg.server = true
	return cfg
}

type gccState int

const (
	stateIncrease gccState = iota
	stateHold
	stateDecrease
)

// GCC is a Google-Congestion-Control-style controller: the minimum of a
// delay-based estimate and a loss-based estimate, clamped to the range.
type GCC struct {
	cfg GCCConfig

	delayRate float64
	lossRate  float64
	state     gccState

	gamma        time.Duration // adaptive overuse threshold
	lastFeedback time.Duration
	lastGood     float64 // highest recently sustained rate, for probing
	lastOveruse  time.Duration

	probeUntil   time.Duration
	probeRate    float64
	lastProbe    time.Duration
	probeJumped  bool
	probeBackoff time.Duration
}

// NewGCC creates a GCC controller.
func NewGCC(cfg GCCConfig) *GCC {
	g := &GCC{
		cfg:       cfg,
		delayRate: cfg.Range.StartBps,
		lossRate:  cfg.Range.StartBps,
		gamma:     gccInitialThreshold,
		lastGood:  cfg.Range.StartBps,
	}
	if cfg.server {
		// Loss-based-only operation (SFU legs): the delay estimate
		// never updates, so it must not bind.
		g.delayRate = cfg.Range.MaxBps
	}
	return g
}

// TargetBps implements Controller.
func (g *GCC) TargetBps() float64 {
	return g.cfg.Range.clamp(math.Min(g.delayRate, g.lossRate))
}

// PadRateBps implements Controller.
func (g *GCC) PadRateBps(now time.Duration) float64 {
	if now < g.probeUntil {
		extra := g.probeRate - g.TargetBps()
		if extra > 0 {
			return extra
		}
	}
	return 0
}

// OnFeedback implements Controller.
func (g *GCC) OnFeedback(fb Feedback) {
	dt := fb.Interval.Seconds()
	if g.lastFeedback != 0 {
		dt = (fb.Now - g.lastFeedback).Seconds()
	}
	if dt <= 0 {
		dt = 0.1
	}
	g.lastFeedback = fb.Now

	// ---- Delay-based controller -------------------------------------
	// Both modes adapt the overuse threshold (the server side gates its
	// known-good tracking and probes on it); only the client acts on it.
	overuse := fb.QueueDelay > g.gamma
	// Adapt gamma toward |queue delay|: fast when delay is above the
	// threshold (avoid TCP starvation), slow when below (regain
	// sensitivity).
	k := 0.045
	if fb.QueueDelay < g.gamma {
		k = 0.0019
	}
	g.gamma += time.Duration(k * dt / 0.1 * float64(fb.QueueDelay-g.gamma))
	// The floor sits above per-packet serialization jitter on sub-Mbps
	// links (~15-30 ms), which is delay the sender itself causes and
	// must not read as congestion.
	const minGamma, maxGamma = 25 * time.Millisecond, 600 * time.Millisecond
	if g.gamma < minGamma {
		g.gamma = minGamma
	}
	if g.gamma > maxGamma {
		g.gamma = maxGamma
	}
	if !g.cfg.server {
		switch {
		case overuse:
			g.state = stateDecrease
			g.lastOveruse = fb.Now
		case g.state == stateDecrease:
			// Underuse/normal after decrease: hold briefly.
			g.state = stateHold
		case g.state == stateHold && fb.Now-g.lastOveruse > 500*time.Millisecond:
			g.state = stateIncrease
		}
		switch g.state {
		case stateDecrease:
			g.delayRate = gccBeta * fb.ReceiveRateBps
		case stateIncrease:
			grown := g.delayRate * math.Pow(gccIncreasePerSec, dt)
			// Growth never runs more than 1.5x ahead of what the
			// path demonstrably delivers — but a receive-rate dip
			// must not pull an established estimate down (only the
			// overuse detector cuts).
			if cap := 1.5 * fb.ReceiveRateBps; grown > cap && fb.ReceiveRateBps > 0 {
				grown = cap
			}
			if grown > g.delayRate {
				g.delayRate = grown
			}
		}
	}

	// ---- Probe outcome ----------------------------------------------
	// Evaluated before the loss controller: a probe demonstrably
	// delivered fb.ReceiveRateBps, and loss the probe itself caused must
	// not veto (or undercut) the jump to that proven rate.
	jumped := false
	if g.cfg.server && g.probeRate > 0 &&
		fb.ReceiveRateBps > 1.1*g.TargetBps() && fb.LossFraction < 0.5 {
		jump := 0.95 * fb.ReceiveRateBps
		if jump > g.delayRate {
			g.delayRate = g.cfg.Range.clamp(jump)
		}
		if jump > g.lossRate {
			// Only a meaningful gain (>=8%) counts as probe success for
			// backoff purposes; micro-jumps at a capacity ceiling must
			// not keep the prober firing forever.
			if jump > 1.08*g.lossRate {
				g.probeJumped = true
			}
			g.lossRate = g.cfg.Range.clamp(jump)
			jumped = true
		}
	}
	// Loss observed while a probe is (or just was) in flight is
	// self-inflicted; it must not cut the estimate the probe measured.
	probeShield := g.cfg.server && g.lastProbe > 0 &&
		fb.Now < g.probeUntil+300*time.Millisecond

	// ---- Loss-based controller --------------------------------------
	// While a probe is in flight the receive rate is pad-inflated and
	// loss is self-inflicted: the explicit jump above is the only way
	// the estimate moves during the shield window.
	switch {
	case jumped || probeShield:
		// Skip the loss reaction this interval; the jump already set the
		// rate to what the path proved it can carry.
	case fb.LossFraction > g.cfg.LossHigh:
		// Cut, but never below what the path demonstrably delivers —
		// WebRTC's loss controller is floored by the acked bitrate.
		cut := g.lossRate * (1 - 0.5*fb.LossFraction)
		if floor := 0.8 * fb.ReceiveRateBps; cut < floor {
			cut = floor
		}
		if cut < g.lossRate {
			g.lossRate = cut
		}
	case fb.LossFraction < gccLossLow:
		grown := g.lossRate * math.Pow(1.08, dt)
		if cap := 1.5 * fb.ReceiveRateBps; grown > cap && fb.ReceiveRateBps > 0 {
			grown = cap
		}
		if grown > g.lossRate {
			g.lossRate = grown
		}
	}
	g.delayRate = g.cfg.Range.clamp(g.delayRate)
	g.lossRate = g.cfg.Range.clamp(g.lossRate)

	// ---- Known-good tracking and recovery probing -------------------
	target := g.TargetBps()
	if fb.LossFraction < gccLossLow && fb.QueueDelay < g.gamma {
		if target > g.lastGood {
			g.lastGood = target
		}
	} else {
		// Forget very slowly during bad periods (half-life of minutes):
		// the Meet SFU remembers that the high simulcast layer exists
		// throughout a 30 s disruption, which is what lets it upgrade
		// again within seconds (Fig 5b).
		g.lastGood *= math.Pow(0.9998, dt/0.1)
	}
	if g.cfg.server {
		if g.probeRate > 0 && fb.Now >= g.probeUntil {
			// Probe window closed: exponential backoff on failure so a
			// saturated path is not probed (and disturbed) forever.
			if g.probeJumped {
				g.probeBackoff = 0
			} else if g.probeBackoff < 30*time.Second {
				g.probeBackoff = 2*g.probeBackoff + 1500*time.Millisecond
			}
			g.probeRate = 0
		}
		// Launch a new probe when sitting well below known-good with a
		// quiet path. The probe rate is modest (1.6x) so that a failed
		// probe does not wreck the queue it is measuring.
		if g.probeRate == 0 && fb.Now >= g.probeUntil && target < 0.8*g.lastGood &&
			fb.QueueDelay < g.gamma && fb.LossFraction < gccLossLow &&
			fb.Now-g.lastProbe > 1500*time.Millisecond+g.probeBackoff {
			g.probeRate = math.Min(1.6*target, 1.2*g.lastGood)
			g.probeUntil = fb.Now + time.Second
			g.lastProbe = fb.Now
			g.probeJumped = false
		}
	}
}
