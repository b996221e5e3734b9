package vca

import (
	"time"

	"vcalab/internal/netem"
	"vcalab/internal/obs"
)

// The SFU's control plane: what arrives on the feedback and signalling
// ports, and the three tickers — the 100 ms control loop (rate estimates,
// reports back to every sender, layer selection), 20 ms probe padding, and
// Meet's 500 ms low-copy allocation.

// onFeedback is the feedback port: a receiver's (or downstream peer
// SFU's) aggregate report, NACK or TWCC report. Whatever arrives is only
// read by its handler, consumed here, and goes back to its pool on every
// return path.
func (s *Server) onFeedback(pkt *netem.Packet) {
	if s.running {
		now := s.eng.Now()
		switch m := pkt.Payload.(type) {
		case *FeedbackMsg:
			s.onReport(now, m)
		case *NackMsg:
			if l := s.track(m.FromID); l != nil {
				if n := l.answer(now, m); n > 0 {
					s.eng.Tracer().Recovery(obs.EvNackAnswer, now, l.recvName, s.reg.name(m.Origin), n)
				}
			}
		case *TWCCMsg:
			if l := s.track(m.FromID); l != nil {
				l.onTWCC(now, m, s.eng.Tracer(), s.Name)
			}
		}
	}
	if m, ok := pkt.Payload.(netem.PayloadReleaser); ok {
		m.ReleasePayload()
	}
}

// onReport folds an aggregate receiver report into its track's controller,
// or, for Teams, relays it to the senders.
func (s *Server) onReport(now time.Duration, fb *FeedbackMsg) {
	l := s.track(fb.FromID)
	if l == nil {
		return
	}
	if l.ctrl != nil {
		// A track built with a retransmit part is driven by TWCC instead:
		// the per-packet arrival report sees the original losses (an RTX
		// rides a fresh transport seq, so a recovered packet does not
		// erase the hole it healed), making the aggregate report
		// redundant — and double-feeding would double the controller's
		// update cadence.
		if l.rtx == nil {
			feedCC(l.ctrl, reportFeedback(now, fb.Stats), s.eng.Tracer(), l.recvName, s.Name)
		}
		return
	}
	// Teams: relay the report end-to-end to every origin the receiver
	// displays — the far sender does the congestion control (§4.2). In a
	// cascade this reaches remote origins across the inter-region link,
	// keeping the loop end-to-end. Every relayed packet carries its own
	// pooled copy of the report: each copy has one consumer that releases
	// it, and the original is released by onFeedback.
	for _, origin := range s.displayed[fb.FromID] {
		post(s.host, s.reg.name(origin), PortFeedback, feedbackWire, s.flowRtcpRelay,
			s.pool.getFeedback(fb.From, fb.FromID, fb.Stats))
	}
}

// onSignal relays FIRs to the origin sender.
func (s *Server) onSignal(pkt *netem.Packet) {
	if fir, ok := pkt.Payload.(*FIRMsg); ok && s.running {
		post(s.host, fir.Origin, PortSignal, firWire, s.flowFir, fir)
	}
}

// controlTick runs every 100 ms: refresh rate estimates, report arrivals
// back to every sender, and update every track's selection state.
func (s *Server) controlTick(now time.Duration) {
	if !s.running {
		return
	}
	for _, r := range s.recv {
		if r != nil {
			r.tick()
		}
	}
	// Feedback toward each sender — only when the server owns the downlink
	// congestion control (Meet/Zoom); Teams relies on e2e RTCP. Toward an
	// upstream peer SFU the downstream end of a relay track reports exactly
	// like a receiver would, so the peer's relay controller sees loss and
	// queueing on the inter-region link.
	if s.prof.NewServerCC != nil {
		for _, origin := range s.clients {
			s.report(now, origin, s.flowRtcpUp)
		}
		for _, peer := range s.peers {
			s.report(now, peer, s.flowRtcpHop)
		}
	}
	s.refreshSelection()
}

// report sends one sender the statistics of what arrived from it.
func (s *Server) report(now time.Duration, to int32, flow string) {
	st := s.recv[to].arrivals.Take(now)
	if st.Interval == 0 {
		st.Interval = 100 * time.Millisecond
	}
	post(s.host, s.reg.name(to), PortFeedback, feedbackWire, flow, s.pool.getFeedback(s.Name, s.id, st))
}

// refreshSelection recomputes every track's selection state, local
// receivers first, then relay tracks. Besides the control tick, the call
// invokes it right after mid-call churn or a layout reshape rather than
// leaving a stale selection in force for up to 100 ms. No-op before the
// server starts, so forwarders built with the call keep forwarding
// everything until the first tick has measured rates.
func (s *Server) refreshSelection() {
	if !s.running {
		return
	}
	for _, rid := range s.legOrder {
		s.updateSelection(s.legs[rid])
	}
}

// updateSelection recomputes stream/layer/thinning choices for one track.
func (s *Server) updateSelection(l *downTrack) {
	displayed := s.displayed[l.receiver]
	if l.passthrough || len(displayed) == 0 {
		return // nothing to select
	}
	share := 0.0
	if l.ctrl != nil {
		share = l.share(len(displayed))
	}
	for _, origin := range displayed {
		f := l.fwd[origin]
		if f == nil {
			continue
		}
		if from, to, switched := f.sel(share, s.recv[origin], s.n); switched {
			s.fwdSwitches++
			what := "sim-copy"
			if s.prof.MediaMode == ModeSVC {
				what = "svc-layer"
			}
			s.eng.Tracer().Switch(s.eng.Now(), l.recvName, s.reg.name(origin), what, from, to)
		}
	}
}

// padTick emits server-side probe padding per track.
func (s *Server) padTick(now time.Duration) {
	if !s.running {
		return
	}
	for _, rid := range s.legOrder {
		s.legs[rid].probe(now, s.Name, s.id)
	}
}

// allocTick (simulcast only): ask senders to shrink their low simulcast copy
// when some receiver cannot even sustain it (§3.1 downlink floor). Only
// local receivers are consulted; remote starvation is absorbed by the
// relay track's own selection.
func (s *Server) allocTick(time.Duration) {
	if !s.running {
		return
	}
	if s.fanDirty {
		s.rebuildFans()
	}
	for _, origin := range s.clients {
		// Find the minimum share across receivers displaying this origin.
		minShare := -1.0
		for _, l := range s.recv[origin].video {
			if l.relay || l.ctrl == nil {
				continue
			}
			if share := l.share(len(s.displayed[l.receiver])); minShare < 0 || share < minShare {
				minShare = share
			}
		}
		if minShare < 0 {
			continue
		}
		var alloc float64
		if minShare < 0.9*s.prof.SimLowCapBps {
			alloc = max(100_000, minShare*0.9)
		}
		post(s.host, s.reg.name(origin), PortSignal, allocWire, s.flowAlloc, &AllocMsg{LowBps: alloc})
	}
}
