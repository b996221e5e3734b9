package cc

import (
	"math"
	"time"
)

// ZoomConfig parameterizes ZoomCC. Start from DefaultZoomConfig.
type ZoomConfig struct {
	Range Range

	// NominalBps is the steady-state rate the controller settles at on an
	// unconstrained link (Table 2: ~0.78 Mbps upstream for Zoom).
	NominalBps float64
}

// ZoomCC's constants.
const (
	// zoomStepBps is the stepwise-increase quantum, and zoomHoldTime how
	// long the controller dwells on a step before probing the next one —
	// producing the staircase recovery of Fig 4a.
	zoomStepBps  float64 = 120_000
	zoomHoldTime         = 6 * time.Second

	// zoomProbeOvershoot is how far above nominal the post-recovery
	// probing phase climbs before settling back (Fig 4a shows Zoom sending
	// well above nominal for ~2 minutes after a disruption).
	zoomProbeOvershoot float64 = 1.6

	// zoomLossTolerance and zoomDelayTolerance are the back-off triggers.
	// They are deliberately huge: Zoom's FEC masks loss, so the controller
	// keeps pushing where GCC or TeamsCC would retreat — the §5 findings
	// that Zoom takes >75% of a constrained link follow from these.
	zoomLossTolerance  float64 = 0.30
	zoomDelayTolerance         = 500 * time.Millisecond

	// zoomBackoffFactor scales the receive rate on back-off.
	zoomBackoffFactor float64 = 0.93

	// The periodic in-call probe bursts ("Anomalous Zoom Bursts", Fig 13):
	// every interval the sender emits padding at factor×target for the
	// duration.
	zoomSteadyProbeInterval         = 55 * time.Second
	zoomSteadyProbeDuration         = 6 * time.Second
	zoomSteadyProbeFactor   float64 = 1.7
)

// DefaultZoomConfig returns the calibration used for the paper's Zoom
// client (§3: nominal 0.78 Mbps up; §4: ~40-50 s staircase recovery from
// 0.25 Mbps; §5: >75% link share under competition).
func DefaultZoomConfig(r Range, nominal float64) ZoomConfig {
	return ZoomConfig{Range: r, NominalBps: nominal}
}

// ZoomCC models Zoom's FEC-probing congestion control: linear/stepwise
// ramping, long holds, extreme loss tolerance, and periodic probe bursts.
type ZoomCC struct {
	cfg ZoomConfig

	rate       float64
	lastChange time.Duration
	// probing tracks the post-disruption overshoot phase: rate climbs
	// past nominal to probe headroom, then settles back to nominal.
	probing    bool
	settled    bool
	lastSteady time.Duration
	burstUntil time.Duration
}

// NewZoomCC creates a ZoomCC controller.
func NewZoomCC(cfg ZoomConfig) *ZoomCC {
	return &ZoomCC{cfg: cfg, rate: cfg.Range.StartBps}
}

// TargetBps implements Controller.
func (z *ZoomCC) TargetBps() float64 { return z.cfg.Range.clamp(z.rate) }

// PadRateBps implements Controller.
func (z *ZoomCC) PadRateBps(now time.Duration) float64 {
	if now < z.burstUntil {
		return (zoomSteadyProbeFactor - 1) * z.TargetBps()
	}
	return 0
}

// OnFeedback implements Controller.
func (z *ZoomCC) OnFeedback(fb Feedback) {
	congested := fb.LossFraction > zoomLossTolerance ||
		fb.QueueDelay > zoomDelayTolerance

	if congested {
		next := zoomBackoffFactor * fb.ReceiveRateBps
		if next < z.rate {
			z.rate = z.cfg.Range.clamp(next)
		}
		z.lastChange = fb.Now
		z.probing = true // a constraint was hit: re-probe on the way out
		z.settled = false
		z.burstUntil = 0 // abandon any burst under congestion
		return
	}

	// Steady-state periodic probe bursts (only once settled at nominal).
	if z.settled && fb.Now-z.lastSteady >= zoomSteadyProbeInterval {
		z.burstUntil = fb.Now + zoomSteadyProbeDuration
		z.lastSteady = fb.Now
	}

	if fb.Now-z.lastChange < zoomHoldTime {
		return // dwell on the current step
	}
	z.lastChange = fb.Now

	ceiling := z.cfg.NominalBps
	if z.probing {
		ceiling = z.cfg.NominalBps * zoomProbeOvershoot
	}
	switch {
	case z.rate < ceiling:
		z.rate = math.Min(z.rate+zoomStepBps, z.cfg.Range.MaxBps)
		z.settled = false
	case z.probing:
		// Finished the overshoot phase: settle back to nominal.
		z.probing = false
		z.rate = z.cfg.NominalBps
		z.settled = true
		z.lastSteady = fb.Now
	default:
		z.rate = z.cfg.NominalBps
		if !z.settled {
			z.settled = true
			z.lastSteady = fb.Now
		}
	}
	z.rate = z.cfg.Range.clamp(z.rate)
}
