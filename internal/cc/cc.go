// Package cc implements the congestion controllers that differentiate the
// paper's three VCAs.
//
// The paper (§4, §5) attributes essentially every cross-VCA difference in
// recovery time and fairness to proprietary congestion control:
//
//   - Google Meet runs Google Congestion Control (GCC, Carlucci et al.):
//     a delay-gradient overuse detector driving an AIMD rate controller,
//     with an adaptive threshold that prevents starvation by loss-based
//     TCP flows. Implemented here as GCC.
//   - Zoom uses a bespoke RTP extension with FEC-based probing (the paper
//     likens it to FBRA, Nagy et al.): stepwise rate increases, long holds,
//     tolerance of heavy loss, and periodic probe bursts well above the
//     nominal rate. Implemented here as ZoomCC.
//   - Teams reacts strongly to the slightest loss or queueing delay and
//     re-ramps slowly-then-quickly after every back-off, making it highly
//     passive against competing traffic. Implemented here as TeamsCC.
//
// Controllers are pure, deterministic state machines driven by Feedback
// records; they know nothing about the simulator, which makes them unit
// testable in isolation.
package cc

import "time"

// Feedback summarizes one receiver-report interval, as assembled by the
// media receiver (internal/vca) from RTCP.
type Feedback struct {
	// Now is the (virtual) time the feedback is processed at the sender.
	Now time.Duration
	// Interval is the span the report covers.
	Interval time.Duration
	// RTT is the current round-trip estimate.
	RTT time.Duration
	// LossFraction is the fraction of packets lost in the interval [0,1].
	LossFraction float64
	// ReceiveRateBps is the goodput measured by the receiver.
	ReceiveRateBps float64
	// QueueDelay estimates one-way queueing delay above the path base
	// delay — what GCC's arrival-time filter measures.
	QueueDelay time.Duration
}

// Controller adapts a media sender's target bitrate.
type Controller interface {
	// OnFeedback folds one feedback report into the controller state.
	OnFeedback(fb Feedback)
	// TargetBps returns the current media target rate for the encoder.
	TargetBps() float64
	// PadRateBps returns the rate of additional padding/FEC/probe traffic
	// the sender should emit on top of the media target right now. Zoom's
	// probe bursts and GCC's recovery probes surface here.
	PadRateBps(now time.Duration) float64
}

// Range bounds a controller's output rate.
type Range struct {
	MinBps   float64
	MaxBps   float64
	StartBps float64
}

func (r Range) clamp(v float64) float64 {
	if v < r.MinBps {
		return r.MinBps
	}
	if v > r.MaxBps {
		return r.MaxBps
	}
	return v
}
