package vca

// forwarder is the layer machine for one (down-track, origin) pair: which
// simulcast copy or SVC layers of the origin this subscriber gets, which
// frames survive temporal thinning, and how surviving frames are
// renumbered. It touches no engine, host or pool: sel is driven by a
// bandwidth share and measured rates, forward by the packet alone.
type forwarder struct {
	prof *Profile

	seq        uint16 // the pair's rewritten sequence space (receiver tracks)
	frameOut   int32
	curInFrame int32
	curKeep    bool
	selRK      uint8   // simulcast: rate key of the selected copy
	maxLayer   int     // SVC: highest forwarded layer
	thinFactor float64 // fraction of frames forwarded
	thinAcc    float64
	needKey    bool // mark next forwarded frame as a keyframe (stream switch)
	fecOwed    float64
}

// allLayers is the maxLayer of a forwarder that has not been through sel.
const allLayers = 1 << 10

// Meet's temporal-thinning zone (§3.2: FPS-first downlink adaptation, the
// paper's 0.7–1.0 Mbps): while a subscriber's share is between thinZoneLow
// and thinZoneHigh times the high copy's rate, sel keeps the high copy and
// drops frames; below it sel switches to the low copy.
const (
	thinZoneLow  = 0.82
	thinZoneHigh = 1.00
)

// newForwarder builds a pair's layer machine. Before the call starts it
// forwards everything — the high copy, every layer — until the first
// control tick has measured arrival rates: estimates start optimistic and
// the first 100 ms carry the keyframes every receiver needs. A
// subscription made in a running call (join, rejoin, cascade re-attach)
// starts at the low copy / base layer and upgrades once the origin's rates
// are measured, the way production forwarders admit a new subscriber: its
// estimate may not sustain more.
func newForwarder(prof *Profile, running bool) *forwarder {
	f := &forwarder{prof: prof, curInFrame: -1, selRK: rkSimHigh, maxLayer: allLayers, thinFactor: 1}
	if running {
		f.selRK, f.maxLayer = rkSimLow, 0
	}
	return f
}

// forward reports whether the subscriber gets this packet. Audio always
// passes; video passes if it belongs to the selected copy / layers and its
// frame survived thinning — all packets of a frame share its fate.
func (f *forwarder) forward(mp *MediaPacket) bool {
	if mp.Audio {
		return true
	}
	// Simulcast: the two copies have independent frame numbering, so the
	// unselected copy is filtered before any frame-gating state.
	if f.prof.MediaMode == ModeSimulcast && mp.RK != f.selRK {
		return false
	}
	if mp.FrameSeq != f.curInFrame {
		f.curInFrame = mp.FrameSeq
		f.curKeep = f.keepFrame(mp)
		if f.curKeep {
			f.frameOut++
		}
	}
	return f.curKeep && !(f.prof.MediaMode == ModeSVC && int(mp.Layer) > f.maxLayer)
}

// keepFrame decides whether a new frame survives temporal thinning.
func (f *forwarder) keepFrame(mp *MediaPacket) bool {
	if mp.Keyframe {
		f.thinAcc = 0
		return true
	}
	f.thinAcc += f.thinFactor
	if f.thinAcc >= 1 {
		f.thinAcc -= 1
		return true
	}
	return false
}

// rewrite stamps the forwarded copy of a video packet with the pair's
// frame numbering, the keyframe mark a stream switch owes, and the
// frame-end marker of a layer-stripped stream. Audio goes out as it came.
func (f *forwarder) rewrite(out, mp *MediaPacket) {
	if mp.Audio {
		return
	}
	out.FrameSeq = f.frameOut
	if f.needKey {
		out.Keyframe = true
		f.needKey = false
	}
	if f.prof.MediaMode == ModeSVC {
		out.FrameEnd = mp.LayerEnd && (int(mp.Layer) == f.maxLayer || mp.FrameEnd)
	}
}

// sel recomputes the selection from the subscriber's bandwidth share for
// this origin, the origin's measured arrival rates and the call size n.
// When the simulcast copy or top SVC layer changed it reports the move.
func (f *forwarder) sel(share float64, src *receiver, n int) (from, to int, switched bool) {
	p := f.prof
	switch p.MediaMode {
	case ModeSimulcast:
		highRate, lowRate := src.rate(int(rkSimHigh)), src.rate(int(rkSimLow))
		prev := f.selRK
		switch {
		case highRate < 30_000:
			// The high copy is not actually flowing (the sender disabled
			// it); selecting it would forward nothing.
			f.selRK, f.thinFactor = rkSimLow, 1
		case share >= thinZoneHigh*highRate:
			f.selRK, f.thinFactor = rkSimHigh, 1
		case share >= thinZoneLow*highRate:
			// Temporal-thinning zone (§3.2: FPS-first downlink
			// adaptation): keep the high copy, drop frames.
			f.selRK, f.thinFactor = rkSimHigh, share/highRate
		default:
			f.selRK, f.thinFactor = rkSimLow, 1
			if lowRate > 0 && share < 0.9*lowRate {
				// Even the low copy exceeds the estimate; thin it rather
				// than starve (keeps Fig 1b's 39-70% utilization floor).
				f.thinFactor = max(0.4, share/lowRate)
			}
			if src.via != noID && lowRate < 30_000 {
				// Cascade: the upstream relay narrowed the simulcast to
				// the high copy only, so thin that instead of switching
				// to a copy that never arrives.
				f.selRK, f.thinFactor = rkSimHigh, max(0.35, share/highRate)
			}
		}
		if f.selRK != prev {
			f.needKey = true
		}
		return int(prev), int(f.selRK), f.selRK != prev
	case ModeSVC:
		f.thinFactor = 1
		base := src.rate(int(rkSVC))
		if base <= 0 {
			// No measured arrivals for this origin yet (call construction,
			// or a mid-call (re)join): keep the current selection rather
			// than promote unmeasured layers on credit — forward
			// everything at construction, base only in a running call.
			return 0, 0, false
		}
		// The highest layer whose cumulative (FEC-inclusive) arrival rate
		// fits the share, floored at the base layer. A not-yet-measured
		// upper layer adds nothing to cum, so the walk stays optimistic
		// about layers it has no evidence against — for one 100 ms tick,
		// and never past a share the measured layers already exceed.
		var cum float64
		prev, top := f.maxLayer, 0
		for layer := range p.SVCSplit {
			cum += src.rate(int(rkSVC)+layer) * (1 + p.ServerFECOverhead)
			if layer > 0 && cum <= share {
				top = layer
			}
		}
		f.maxLayer = top
		// Base layer still above the estimate: thin temporally.
		if fecBase := base * (1 + p.ServerFECOverhead); top == 0 && share < fecBase {
			f.thinFactor = max(0.35, share/fecBase)
		}
		return prev, top, top != prev
	case ModeSingle:
		// One stream: nothing to select, only frames to thin.
		f.thinFactor = p.ForwardFactor(n)
	}
	return 0, 0, false
}
