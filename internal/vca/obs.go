package vca

// Observability surface for the VCA layer: the reason codes attached to
// CC trace events, and the read-only accessors and getStats snapshots the
// metrics sampler polls. There is no tracer to wire: clients and SFUs
// record into their region engine's tracer, churn into the call engine's
// (sim.Engine.Tracer). Everything here is passive — nothing mutates
// client, server, or call state, and nothing draws from a sim RNG — so
// tracing or sampling stats cannot change experiment output.

import (
	"time"

	"vcalab/internal/cc"
	"vcalab/internal/media"
	"vcalab/internal/obs"
	"vcalab/internal/webrtcstats"
)

// ccReason derives the reason code recorded with a CC trace event from
// the feedback that triggered the change. The thresholds match the
// loss/delay sensitivities of the paper's VCAs closely enough to label
// why a controller moved; they are descriptive, not part of control.
func ccReason(lossFraction float64, queueDelay time.Duration, oldBps, newBps float64) string {
	switch {
	case newBps < oldBps && lossFraction > 0.02:
		return "backoff-loss"
	case newBps < oldBps && queueDelay > 10*time.Millisecond:
		return "backoff-delay"
	case newBps < oldBps:
		return "backoff"
	case newBps > oldBps:
		return "increase"
	default:
		return "hold"
	}
}

// reportFeedback is an aggregate receiver report as controller input; the
// RTT follows the repo's synthetic convention (2×queue delay + 40 ms base).
func reportFeedback(now time.Duration, st media.IntervalStats) cc.Feedback {
	return cc.Feedback{
		Now:            now,
		Interval:       st.Interval,
		RTT:            2*st.QueueDelay + 40*time.Millisecond,
		LossFraction:   st.LossFraction,
		ReceiveRateBps: st.RateBps,
		QueueDelay:     st.QueueDelay,
	}
}

// feedCC folds one feedback sample into a controller and, when tracing,
// records the target it moved to: client is the receiver the controller
// paces toward, origin the sender it runs at ("" for a client's uplink).
func feedCC(ctrl cc.Controller, fb cc.Feedback, tr *obs.Tracer, client, origin string) {
	var oldBps float64
	if tr != nil {
		oldBps = ctrl.TargetBps()
	}
	ctrl.OnFeedback(fb)
	if tr != nil {
		if newBps := ctrl.TargetBps(); newBps != oldBps {
			tr.CC(fb.Now, client, origin, ccReason(fb.LossFraction, fb.QueueDelay, oldBps, newBps), oldBps, newBps)
		}
	}
}

// LastRTT returns the round-trip estimate the uplink controller last
// saw (zero before any feedback arrives).
func (c *Client) LastRTT() time.Duration { return c.lastRTT }

// StatsReport builds a getStats-style snapshot of this client at now.
// Strictly read-only: it never calls Receiver.Take (feedbackTick's
// 100 ms report does), so sampling at any cadence leaves interval state —
// and therefore experiment output — untouched.
func (c *Client) StatsReport(now time.Duration) webrtcstats.Report {
	tus := now.Microseconds()
	var r webrtcstats.Report

	var out = webrtcstats.OutboundRTP{
		TUs: tus, Type: "outbound-rtp", Client: c.Name,
		TargetBitrate: c.videoTarget(),
		FIRCount:      c.FIRsForMyVideo,
		BytesSent:     uint64(c.UpMeter.TotalBytes()),
	}
	p := c.enc.Params()
	out.FPS, out.FrameWidth, out.FrameHeight, out.QP = p.FPS, p.Width, p.Height, p.QP
	out.NackCount, out.RetransmittedPacketsSent = c.home.recoverySenderStats(c.id)
	r.Outbound = out

	for _, id := range c.recvOrder {
		t := &c.recv[id]
		recv, rs := t.recv, t.jb.stats()
		lp := recv.LastParams
		in := webrtcstats.InboundRTP{
			TUs: tus, Type: "inbound-rtp", Client: c.Name,
			Origin:         c.reg.name(id),
			FramesDecoded:  recv.DisplayedFrames(),
			FPS:            lp.FPS,
			FrameWidth:     lp.Width,
			FrameHeight:    lp.Height,
			FreezeCount:    recv.FreezeCount(),
			TotalFreezesMs: float64(recv.FreezeTime()) / float64(time.Millisecond),
			BytesReceived:  uint64(recv.TotalBytes),

			NackCount:                    rs.NackCount,
			RetransmittedPacketsReceived: rs.RTXReceived,
			JitterBufferDelay:            rs.JitterBufferTime.Seconds(),
		}
		r.Inbound = append(r.Inbound, in)
	}

	var target float64
	if c.ccUp != nil {
		target = c.ccUp.TargetBps()
	}
	r.Pair = webrtcstats.CandidatePair{
		TUs: tus, Type: "candidate-pair", Client: c.Name,
		RTTSeconds:   c.lastRTT.Seconds(),
		AvailableOut: target,
		BytesSent:    uint64(c.UpMeter.TotalBytes()),
		BytesRecv:    uint64(c.DownMeter.TotalBytes()),
	}
	return r
}

// LegNames returns the names of the server's current down-tracks (local
// receivers, then relay peers) in deterministic order.
func (s *Server) LegNames() []string {
	out := make([]string, 0, len(s.legOrder))
	for _, id := range s.legOrder {
		out = append(out, s.legs[id].recvName)
	}
	return out
}

// LegFwdBytes returns the cumulative media bytes the server has sent
// toward the named receiver (0 for an unknown one). The counter lives on
// the down-track, so it resets if churn tears the track down and a Rejoin
// recreates it.
func (s *Server) LegFwdBytes(receiver string) uint64 {
	if l := s.track(s.reg.id(receiver)); l != nil {
		return l.fwdBytes
	}
	return 0
}

// FwdSwitches reports how many forwarding-selection changes (simulcast
// copy flips, SVC layer moves) this server has made since creation.
func (s *Server) FwdSwitches() uint64 { return s.fwdSwitches }

// recoverySenderStats reads one origin's sender-side recovery counters at
// this SFU — NACKed seqs received for its media and retransmissions
// answered — summed over the down-tracks that carry it or once did. Zero
// with recovery off or for an unknown origin.
func (s *Server) recoverySenderStats(id int32) (nacks, rtx uint64) {
	if id < 0 || int(id) >= len(s.legs) {
		return 0, 0
	}
	var c rtxCount
	if s.retired != nil {
		c = s.retired[id]
	}
	s.eachRTX(func(r *retransmitter) { c.add(r.byOrigin[id].rtxCount) })
	return c.nacks, c.rtx
}

// NackRTXTotals reports the call-wide NACKed-seq and answered-RTX
// counters summed over every SFU's down-tracks, live and torn down
// (harness invariant surface).
func (c *Call) NackRTXTotals() (nacks, rtx uint64) {
	var sum rtxCount
	for _, s := range c.Servers {
		for _, o := range s.retired {
			sum.add(o)
		}
		s.eachRTX(func(r *retransmitter) {
			for i := range r.byOrigin {
				sum.add(r.byOrigin[i].rtxCount)
			}
		})
	}
	return sum.nacks, sum.rtx
}
