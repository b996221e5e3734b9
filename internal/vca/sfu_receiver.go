package vca

import (
	"time"

	"vcalab/internal/media"
)

// receiver is the SFU's arrival side for one registry ID: a locally homed
// origin, a remote origin relayed by an upstream peer SFU, or that peer
// itself. Server.recv holds one per known ID; a nil entry is a stranger
// whose packets are dropped at ingest.
type receiver struct {
	// arrivals accounts what this ID sends here, for the report the server
	// returns to it every control tick: a local client's uplink, or — where
	// the server terminates congestion control per hop (Meet/Zoom) — an
	// upstream peer's whole relay link. Nil where nobody is reported to: a
	// remote origin (its packets count toward its peer), a Teams hop.
	arrivals *media.Receiver
	// via is the upstream peer that relays a remote origin's media; noID
	// for an ID homed here and for a peer.
	via int32
	// rates estimates the origin's arrival rate per stream, indexed by rate
	// key — what layer selection fits to a subscriber's share. Empty for a
	// peer: its ID arrives only on relay probe padding.
	rates []rateEst
	// video and audio are the down-tracks the origin's packets fan out to,
	// local receivers in join order, then relay peers: video to the tracks
	// that display the origin, audio to all. Server.rebuildFans derives
	// them from the displayed sets after any layout or churn change.
	video, audio []*downTrack
}

type rateEst struct {
	bytes int
	rate  float64 // bps, EWMA
}

// newOrigin is the entry of a local (via == noID) or remote origin.
func newOrigin(prof *Profile, via int32) *receiver {
	r := &receiver{via: via, rates: make([]rateEst, int(rkSVC)+max(1, len(prof.SVCSplit)))}
	if via == noID {
		r.arrivals = media.NewReceiver()
	}
	return r
}

// newHop is the entry of an upstream peer SFU.
func newHop(prof *Profile) *receiver {
	r := &receiver{via: noID}
	if prof.NewServerCC != nil {
		r.arrivals = media.NewReceiver()
	}
	return r
}

// local reports whether the ID is an origin homed on this server.
func (r *receiver) local() bool { return r.via == noID && len(r.rates) > 0 }

// account files one arrival with the loss/delay statistics. The server
// does not decode, so every packet is opaque payload.
func (r *receiver) account(now time.Duration, mp *MediaPacket, size int, sentAt time.Duration) {
	if r.arrivals != nil {
		info := mp.Info(size, sentAt)
		info.Padding = true
		r.arrivals.OnPacket(now, info)
	}
}

func (r *receiver) trackRate(mp *MediaPacket, size int) {
	if k := mp.rateKey(); k < len(r.rates) {
		r.rates[k].bytes += size
	}
}

// tick folds the bytes of one 100 ms control interval into the estimates.
func (r *receiver) tick() {
	for i := range r.rates {
		e := &r.rates[i]
		inst := float64(e.bytes) * 8 / 0.1
		e.rate = 0.5*e.rate + 0.5*inst
		e.bytes = 0
	}
}

func (r *receiver) rate(key int) float64 {
	if key < len(r.rates) {
		return r.rates[key].rate
	}
	return 0
}
