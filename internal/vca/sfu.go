package vca

import (
	"slices"
	"time"

	"vcalab/internal/cc"
	"vcalab/internal/netem"
	"vcalab/internal/sim"
)

// Server is the VCA's relay/SFU. Its behaviour is what differentiates the
// three VCAs' downlink dynamics (§4.2):
//
//   - Meet: per-receiver congestion control selects one of the sender's two
//     simulcast copies, with temporal thinning between them, and can ask the
//     sender to shrink its low copy when a receiver is starved.
//   - Zoom: per-receiver congestion control forwards an SVC layer subset
//     and adds server-generated FEC (§3.1).
//   - Teams: a pure relay — every displayed stream is forwarded and the
//     receiver's RTCP is relayed to the senders, making congestion control
//     end-to-end (and slow, Fig 5b/Fig 6).
//
// A packet crosses three stages, one concrete type and one file each
// (DESIGN.md §8): the origin's receiver (sfu_receiver.go) accounts the
// arrival and names the down-tracks it fans out to; each down-track's
// forwarder for that origin (sfu_forwarder.go) decides whether this
// subscriber gets it; the downTrack (sfu_downtrack.go) rewrites, stamps
// and sends the copy. Server itself is the wiring: the two tables, the
// port handlers, the tickers, and churn. In a cascaded call
// (NewCascadedCall) it also holds relay down-tracks toward peer SFUs: each
// local origin's media crosses each inter-region link once, and the peer
// re-forwards it to its own local receivers.
//
// Both tables are dense slices indexed by the call registry's IDs
// (registry.go), and every loop runs over an explicit ID order list, so
// packet emission order — and therefore experiment output — is fixed.
type Server struct {
	Name string

	eng  *sim.Engine
	prof *Profile
	host *netem.Host
	reg  *registry
	id   int32 // own registry ID
	pool *mpPool

	recv []*receiver  // sender ID -> arrival side (nil: stranger)
	legs []*downTrack // subscriber ID -> send side (nil: none)
	// flows and relayFlows are the media labels of receiver and relay
	// tracks, indexed by origin ID like recv.
	flows, relayFlows flowLabels

	clients    []int32 // locally homed participant IDs, join order
	relayPeers []int32 // downstream peer SFUs this server relays to
	peers      []int32 // upstream peer SFUs this server receives from
	// legOrder fixes the iteration order over down-tracks (local clients,
	// then relay peers) so ticks emit packets deterministically even when
	// several tracks share one shaped link (the cascade's inter-region hop).
	legOrder []int32
	// displayed maps a subscriber ID to the origin IDs it displays (layout
	// order). For a peer SFU it is the relay subscription.
	displayed [][]int32
	fanDirty  bool // a layout or churn change outdated the receivers' fan-outs
	n         int  // total participants across all regions

	// passthrough: Teams in a 2-party call relays untouched (§4.2).
	passthrough bool
	// recovery builds every down-track toward a local receiver with a
	// retransmit part; off, every track is built without one.
	recovery bool
	// retired keeps, per origin ID, the recovery counters of down-tracks
	// that have been torn down, so the sender-side totals survive churn.
	retired []rtxCount

	flowRtcpUp, flowRtcpHop, flowRtcpRelay string
	flowFir, flowAlloc                     string

	tickers []*sim.Ticker
	running bool

	// fwdSwitches counts forwarding switches whether or not the engine
	// traces them (cheap, allocation-free).
	fwdSwitches uint64
}

// newServer builds the SFU on the given host. clients are the locally homed
// participant IDs; total is the call-wide participant count. The registry
// must already hold every participant and SFU of the call, so both tables
// size to their final density here. recovery turns loss recovery on.
func newServer(eng *sim.Engine, prof *Profile, host *netem.Host, reg *registry, clients []int32, pool *mpPool, total int, recovery bool) *Server {
	n := reg.cap()
	s := &Server{
		Name: host.Name, eng: eng, prof: prof, host: host, reg: reg, pool: pool,
		id:          reg.intern(host.Name, true),
		recv:        make([]*receiver, n),
		legs:        make([]*downTrack, n),
		displayed:   make([][]int32, n),
		flows:       flowLabels{prefix: prof.Name + "/sfu/", reg: reg, rows: make([][]string, n)},
		relayFlows:  flowLabels{prefix: prof.Name + "/relay/", reg: reg, rows: make([][]string, n)},
		n:           total,
		passthrough: prof.NewServerCC == nil && total == 2,
		recovery:    recovery,

		flowRtcpUp:    prof.Name + "/sfu/rtcp-up",
		flowRtcpHop:   prof.Name + "/relay/rtcp-hop",
		flowRtcpRelay: prof.Name + "/sfu/rtcp-relay",
		flowFir:       prof.Name + "/sfu/fir",
		flowAlloc:     prof.Name + "/sfu/alloc",
	}
	for _, c := range clients {
		s.addClient(c)
	}
	host.HandleFunc(PortMedia, s.onMedia)
	host.HandleFunc(PortFeedback, s.onFeedback)
	host.HandleFunc(PortSignal, s.onSignal)
	return s
}

// addTrack builds the down-track toward one subscriber. This is the one
// place recovery is decided on the server: a track toward a local receiver
// in a recovery-on call is built with a retransmit part, any other without.
func (s *Server) addTrack(id int32, relay bool) {
	l := &downTrack{
		receiver: id, recvName: s.reg.name(id), relay: relay,
		prof: s.prof, host: s.host, pool: s.pool, flows: &s.flows,
		fwd: make([]*forwarder, s.reg.cap()),
	}
	if relay {
		l.flows = &s.relayFlows
	}
	if s.prof.NewServerCC != nil {
		l.ctrl = s.prof.NewServerCC()
	}
	l.passthrough = s.passthrough || (relay && l.ctrl == nil)
	if s.recovery && !relay {
		l.rtx = newRetransmitter(len(l.fwd), l.ctrl != nil)
	}
	s.legs[id] = l
	s.rewire()
}

// rewire re-derives what follows from the two tables after either changed:
// the track order, a forwarder for every (track, origin) pair that carries
// media — a receiver track carries every origin but its own, a relay track
// the local ones, since in a full mesh an origin crosses each inter-region
// link exactly once — and, lazily, the fan-outs.
func (s *Server) rewire() {
	s.legOrder = append(append(s.legOrder[:0], s.clients...), s.relayPeers...)
	s.fanDirty = true
	for _, rid := range s.legOrder {
		l := s.legs[rid]
		for o, r := range s.recv {
			carries := r != nil && len(r.rates) > 0 && int32(o) != rid && (!l.relay || r.local())
			if carries && l.fwd[o] == nil {
				l.fwd[o] = newForwarder(s.prof, s.running)
			}
		}
	}
}

// rebuildFans recomputes every origin's fan-out from the displayed sets:
// local receivers in join order, then relay peers; video to the tracks
// displaying the origin, audio to all.
func (s *Server) rebuildFans() {
	s.fanDirty = false
	for o, r := range s.recv {
		if r == nil {
			continue
		}
		r.video, r.audio = r.video[:0], r.audio[:0]
		for _, rid := range s.legOrder {
			if l := s.legs[rid]; l.fwd[o] != nil {
				r.audio = append(r.audio, l)
				if slices.Contains(s.displayed[rid], int32(o)) {
					r.video = append(r.video, l)
				}
			}
		}
	}
}

// addRelayLeg creates the relay down-track toward a peer SFU, carrying
// every locally homed origin. For Meet/Zoom it gets its own congestion
// controller (per-hop termination); for Teams it is a pure pass-through.
func (s *Server) addRelayLeg(peer int32) {
	s.relayPeers = append(s.relayPeers, peer)
	s.addTrack(peer, true)
}

// addPeer registers an upstream peer SFU. Its entry accounts the whole
// relay hop where the server terminates congestion control on it.
func (s *Server) addPeer(peer int32) {
	s.peers = append(s.peers, peer)
	s.recv[peer] = newHop(s.prof)
}

// addRemoteOrigin registers an origin homed on an upstream peer SFU: its
// media arrives over the relay link and is re-forwarded to local receivers
// only.
func (s *Server) addRemoteOrigin(peer, origin int32) {
	s.recv[origin] = newOrigin(s.prof, peer)
	s.rewire()
}

// addClient attaches a local participant (construction and rejoin): its
// receiver, its down-track, and a forwarder for it on every other track.
func (s *Server) addClient(id int32) {
	s.clients = append(s.clients, id)
	s.recv[id] = newOrigin(s.prof, noID)
	s.addTrack(id, false)
}

// remove clears every table entry an ID indexes — a local participant or a
// remote origin that left — so a rejoin under the same ID rebuilds them
// fresh. A torn-down track lets go of the packets it retained and retires
// its counters, which stay the participant's.
func (s *Server) remove(id int32) {
	if int(id) >= len(s.legs) {
		return
	}
	if i := slices.Index(s.clients, id); i >= 0 {
		s.clients = slices.Delete(s.clients, i, i+1)
	}
	if l := s.legs[id]; l != nil && l.rtx != nil {
		if s.retired == nil {
			s.retired = make([]rtxCount, len(s.legs))
		}
		l.rtx.retire(s.retired)
	}
	s.legs[id], s.recv[id], s.displayed[id] = nil, nil, nil
	s.flows.rows[id], s.relayFlows.rows[id] = nil, nil
	s.rewire()
	for _, rid := range s.legOrder {
		s.legs[rid].dropOrigin(id)
	}
}

// setDisplayedIDs installs a receiver's displayed origin set (layout) by
// registry ID — the call-internal fast path.
func (s *Server) setDisplayedIDs(receiver int32, origins []int32) {
	s.displayed[receiver] = origins
	s.fanDirty = true
}

// track returns the down-track toward a subscriber ID taken off the wire or
// out of the registry (nil: out of range, noID, or no track).
func (s *Server) track(id int32) *downTrack {
	if id < 0 || int(id) >= len(s.legs) {
		return nil
	}
	return s.legs[id]
}

// Leg exposes a receiver (or relay) leg's controller (for tests).
func (s *Server) Leg(receiver string) cc.Controller {
	if l := s.track(s.reg.id(receiver)); l != nil {
		return l.ctrl
	}
	return nil
}

func (s *Server) start() {
	s.running = true
	s.tickers = append(s.tickers, s.eng.EveryHandler(reportInterval, sim.HandlerFunc(s.controlTick)))
	s.tickers = append(s.tickers, s.eng.EveryHandler(padInterval, sim.HandlerFunc(s.padTick)))
	if s.prof.MediaMode == ModeSimulcast {
		s.tickers = append(s.tickers, s.eng.EveryHandler(500*time.Millisecond, sim.HandlerFunc(s.allocTick)))
	}
}

func (s *Server) stop() {
	s.running = false
	for _, t := range s.tickers {
		t.Stop()
	}
	s.tickers = nil
}

// onMedia receives an uplink or relayed packet and forwards it along the
// origin's fan-out. The inbound payload is consumed here: every forwarded
// copy is a fresh pooled packet, and the SFU holds the original only while
// it fans out. Each RTX ring slot a down-track files on the way adds a
// holder, and the original returns to the pool when the last slot pointing
// at it is evicted or drained; with none filed it returns on exit.
func (s *Server) onMedia(pkt *netem.Packet) {
	mp, ok := pkt.Payload.(*MediaPacket)
	if !ok {
		return
	}
	mp.retain()
	if s.running {
		s.ingest(mp, pkt.Size, pkt.SentAt)
	}
	unref(mp)
}

// ingest accounts one arrival and fans it out.
func (s *Server) ingest(mp *MediaPacket, size int, sentAt time.Duration) {
	origin := mp.OriginID
	if origin < 0 || int(origin) >= len(s.recv) || s.recv[origin] == nil {
		return // stranger to this call
	}
	r, now := s.recv[origin], s.eng.Now()
	// A local uplink feeds the origin's feedback loop, a relayed arrival
	// the per-hop loop back to the upstream SFU. Relay probe padding
	// carries the peer's own ID as origin, relayed media the client's.
	if r.via != noID {
		s.recv[r.via].account(now, mp, size, sentAt)
	} else {
		r.account(now, mp, size, sentAt)
	}
	r.trackRate(mp, size)

	if mp.Padding {
		return // probe padding and relay FEC terminate at each hop
	}
	if s.fanDirty {
		s.rebuildFans()
	}
	fan := r.video
	if mp.Audio {
		fan = r.audio
	}
	for _, l := range fan {
		l.write(now, mp, size)
	}
}

// eachRTX visits the retransmit part of every down-track built with one.
func (s *Server) eachRTX(visit func(*retransmitter)) {
	for _, l := range s.legs {
		if l != nil && l.rtx != nil {
			visit(l.rtx)
		}
	}
}
