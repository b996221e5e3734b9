package vca

import (
	"time"

	"vcalab/internal/cc"
	"vcalab/internal/netem"
)

// downTrack is the SFU's send side toward one subscriber — a local client,
// or a peer SFU when relay is set. It owns what the subscriber sees of the
// call: one forwarder (layer machine) per origin it carries, the rewritten
// sequence spaces, the downlink congestion controller and its probe
// padding, and — when built with one — the retransmit part (recovery.go)
// that answers the subscriber's NACKs and turns its TWCC reports into
// controller feedback. A relay track is the same machinery toward a peer:
// Meet/Zoom terminate congestion control per hop (the downstream SFU
// reports back like a receiver would), Teams passes through.
type downTrack struct {
	receiver int32
	recvName string // cached for netem addressing
	relay    bool
	// passthrough marks a track that forwards packets untouched — a Teams
	// relay hop, or Teams' 2-party call (§4.2): original sequence numbers
	// and origin timestamps survive, so uplink loss and queueing stay
	// visible to the far receiver's end-to-end congestion control, across
	// a cascade of SFUs too.
	passthrough bool

	prof *Profile
	host *netem.Host
	pool *mpPool

	ctrl     cc.Controller // nil for Teams (pure relay)
	seq      uint16        // relay tracks: one sequence space across origins
	fwd      []*forwarder  // origin ID -> layer machine (nil: not carried)
	fwdBytes uint64        // cumulative media bytes sent down this track
	pad      padBudget
	flows    *flowLabels // the server's labels for this track's kind

	// rtx is set at construction, or never: the retransmit part of a track
	// toward a local receiver in a recovery-on call. Nil, every call the
	// packet path makes on it does nothing, and that path is exactly the
	// pre-recovery one.
	rtx *retransmitter
}

// write offers one ingress packet to the subscriber: dropped, or copied,
// rewritten and sent. mp itself is only read.
func (l *downTrack) write(now time.Duration, mp *MediaPacket, size int) {
	f := l.fwd[mp.OriginID]
	if f == nil {
		return
	}
	if l.passthrough {
		out := l.pool.copyOf(mp)
		out.E2E = true
		l.rtx.store(mp, out, size)
		l.send(now, out, size)
	} else if f.forward(mp) {
		l.emit(now, f, mp, size)
	}
}

// emit rewrites sequence/frame numbers and sends the packet to the
// subscriber, generating FEC overhead where the profile says so.
func (l *downTrack) emit(now time.Duration, f *forwarder, mp *MediaPacket, size int) {
	out := l.pool.copyOf(mp)
	out.Seq = l.nextSeq(f)
	f.rewrite(out, mp)
	l.rtx.store(mp, out, size)
	l.send(now, out, size)

	if mp.Audio || l.prof.ServerFECOverhead <= 0 {
		return
	}
	f.fecOwed += float64(size) * l.prof.ServerFECOverhead
	for f.fecOwed >= 600 {
		n := min(int(f.fecOwed), maxPayload)
		f.fecOwed -= float64(n)
		fec := l.pool.get()
		fec.OriginID = mp.OriginID
		fec.RK = rkFEC
		fec.Seq, fec.Padding = l.nextSeq(f), true
		l.rtx.storeOwn(fec, n+wireOverhead)
		l.send(now, fec, n+wireOverhead)
	}
}

// nextSeq allocates the next sequence number: per origin toward a
// receiver, one space across origins on a relay track so the downstream
// SFU can run loss accounting for the whole hop.
func (l *downTrack) nextSeq(f *forwarder) uint16 {
	if l.relay {
		seq := l.seq
		l.seq++
		return seq
	}
	seq := f.seq
	f.seq++
	return seq
}

// flowLabels is one server's cache of media accounting labels of one kind
// (sfu or relay), index-addressed by (origin ID, rate key). A label names
// no subscriber, so every down-track of the kind shares it; building the
// label per forwarded packet would allocate on the hottest path.
type flowLabels struct {
	prefix string     // "<vca>/<kind>/"
	reg    *registry  // names the origin on a label's first build
	rows   [][]string // origin ID -> rate key -> label ("" until first use)
}

// get returns the cached label for the packet's (origin, stream).
func (t *flowLabels) get(mp *MediaPacket) string {
	row := t.rows[mp.OriginID]
	k := mp.rateKey()
	for len(row) <= k {
		row = append(row, "")
	}
	if row[k] == "" {
		row[k] = t.prefix + t.reg.name(mp.OriginID) + "/" + streamName(mp.RK)
	}
	t.rows[mp.OriginID] = row
	return row[k]
}

func (l *downTrack) send(now time.Duration, mp *MediaPacket, size int) {
	l.rtx.stamp(now, mp, size)
	l.fwdBytes += uint64(size)
	post(l.host, l.recvName, PortMedia, size, l.flows.get(mp), mp)
}

// probe emits the padding the controller asks for (GCC recovery probes on
// the Meet/Zoom downlink, Fig 5b's fast recovery; a relay track probes its
// inter-region hop the same way) under the server's own identity.
func (l *downTrack) probe(now time.Duration, serverID int32) {
	if l.ctrl == nil {
		return
	}
	for n := l.pad.due(now, l.ctrl); n > 0; n-- {
		mp := l.pool.get()
		mp.OriginID = serverID
		mp.RK, mp.Padding = rkPad, true
		l.send(now, mp, maxPayload+wireOverhead)
	}
}

// share is the bandwidth the subscriber's estimate leaves each of the
// numVideo origins it displays, audio set aside.
func (l *downTrack) share(numVideo int) float64 {
	return (l.ctrl.TargetBps() - audioBps*float64(numVideo)) / float64(numVideo)
}

// dropOrigin forgets one origin: its layer machine and retained packets.
func (l *downTrack) dropOrigin(id int32) {
	l.fwd[id] = nil
	l.rtx.drop(id)
}
