package vca

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"vcalab/internal/netem"
	"vcalab/internal/reuse"
	"vcalab/internal/rtp"
	"vcalab/internal/sim"
	"vcalab/internal/stats"
	"vcalab/internal/webrtcstats"
)

// ViewMode is the call's viewing modality (§6).
type ViewMode int

// Viewing modes common to all three VCAs (§6).
const (
	// Gallery shows all participants in a tiled grid (the default).
	Gallery ViewMode = iota
	// Speaker pins the first client's video on every other participant's
	// screen (§6.2: only one client pinning suffices to change the
	// pinned sender's uplink; we pin on all, as the paper's experiment).
	Speaker
)

// CallOptions configure a call beyond its participants.
type CallOptions struct {
	Mode ViewMode
	Seed int64
	// Recovery enables packet-level loss recovery (DESIGN.md §13):
	// receiver jitter buffers with NACK/RTX and, for profiles with
	// server-side congestion control, TWCC-style per-packet feedback.
	// Off, the packet path is byte-identical to a build without it.
	Recovery bool
}

// CascadePlacement homes a group of clients on one SFU host — one region
// of a cascaded call.
type CascadePlacement struct {
	Server  *netem.Host
	Clients []*netem.Host
	// Eng, when set, is the engine this region's protocol machinery
	// schedules on — a shard of a region-sharded run. Nil means the
	// call-wide engine (the sequential default). The region's hosts and
	// links must live on the same engine.
	Eng *sim.Engine
}

// Call wires N clients and one or more SFUs into a conference and manages
// its lifecycle. Topology (hosts, links, shaping) is owned by the caller;
// the Call only attaches protocol machinery to hosts.
//
// The Call owns the participant identity registry: every client and SFU
// name is interned to a dense ID at build time, and all layout and churn
// bookkeeping below runs on those IDs.
type Call struct {
	Prof    *Profile
	Clients []*Client
	// Servers holds every region's SFU (length 1 for NewCall).
	Servers []*Server

	eng   *sim.Engine // the control engine, where churn runs and is traced
	reg   *registry
	pools []*mpPool // per-region payload free lists (media + control)
	// lats holds one frame-latency log per region once SampleFrameLatency
	// has subscribed; nil before. Per region for the same reason pools
	// are: a region's clients share one engine, so a log has one writer.
	lats    []*latencyLog
	mode    ViewMode
	home    []int32 // participant ID -> region index
	started bool

	// want/wantIDs are the relay-subscription scratch set, hoisted onto
	// the call and cleared in place per use so applyRelayLayout allocates
	// nothing per region pair.
	want    []bool
	wantIDs []int32

	// displayedScratch backs the per-receiver displayed sets built by
	// applyLayout; one flat slab, resliced per layout pass.
	displayedScratch []int32
}

// NewCall creates a call between the given client hosts through the server
// host. Client 0 is "C1" in the paper's terms: the instrumented client
// (and the pinned participant in Speaker mode).
func NewCall(eng *sim.Engine, prof *Profile, server *netem.Host, clientHosts []*netem.Host, opt CallOptions) *Call {
	return NewCascadedCall(eng, prof, []CascadePlacement{{Server: server, Clients: clientHosts}}, opt)
}

// NewCascadedCall creates a call whose participants are spread across
// regions, each homed on its region's SFU. The SFUs form a full relay
// mesh: every locally homed origin's media crosses each inter-region link
// once, and the remote SFU fans it out to its own receivers. Client 0 of
// region 0 is C1. Congestion control on the relay hops follows the
// profile: Meet/Zoom terminate per hop, Teams stays end-to-end.
func NewCascadedCall(eng *sim.Engine, prof *Profile, regions []CascadePlacement, opt CallOptions) *Call {
	total := 0
	for _, r := range regions {
		total += len(r.Clients)
	}
	if total < 2 {
		panic("vca: a call needs at least two clients")
	}
	c := &Call{
		Prof: prof, eng: eng, mode: opt.Mode, reg: newRegistry(),
	}
	// Intern every participant, then every SFU: participant IDs come out
	// dense in join order, and all tables size to their final density at
	// construction.
	localIDs := make([][]int32, len(regions))
	for ri, r := range regions {
		ids := make([]int32, len(r.Clients))
		for i, h := range r.Clients {
			ids[i] = c.reg.intern(h.Name, false)
		}
		localIDs[ri] = ids
	}
	for _, r := range regions {
		c.reg.intern(r.Server.Name, true)
	}
	c.home = make([]int32, c.reg.cap())
	for ri, ids := range localIDs {
		for _, id := range ids {
			c.home[id] = int32(ri)
		}
	}
	// One media-packet free list per region: a region's clients and SFU
	// always share one engine, so the pool stays single-threaded whether
	// that engine is the call-wide one or a shard. Pool identity never
	// affects event order, so splitting it is output-invisible.
	c.pools = make([]*mpPool, len(regions))
	for ri := range regions {
		if c.pools[ri] = stashes.pools.Take(); c.pools[ri] == nil {
			c.pools[ri] = &mpPool{}
		}
	}
	for ri, r := range regions {
		s := newServer(regionEngine(r, eng), prof, r.Server, c.reg, localIDs[ri], c.pools[ri], total, opt.Recovery)
		c.home[s.id] = int32(ri)
		c.Servers = append(c.Servers, s)
	}
	// Wire the relay mesh: each server forwards its local origins to every
	// peer, and registers every peer's origins as remote arrivals.
	for i, si := range c.Servers {
		for j, sj := range c.Servers {
			if i == j {
				continue
			}
			si.addRelayLeg(sj.id)
			sj.addPeer(si.id)
			for _, o := range localIDs[i] {
				sj.addRemoteOrigin(si.id, o)
			}
		}
	}
	i := 0
	for ri, r := range regions {
		for _, h := range r.Clients {
			// The seed is derived from the flattened global index, never
			// from an engine, so a client's RNG stream is identical
			// whether its region runs sharded or sequential.
			cl := newClient(regionEngine(r, eng), prof, h.Name, h, c.reg, c.Servers[ri], ri, c.pools[ri], opt.Seed+int64(i)*7919, opt.Recovery)
			c.Clients = append(c.Clients, cl)
			i++
		}
	}
	c.applyLayout(opt.Mode)
	return c
}

// regionEngine picks the engine one region's machinery schedules on.
func regionEngine(r CascadePlacement, callEng *sim.Engine) *sim.Engine {
	if r.Eng != nil {
		return r.Eng
	}
	return callEng
}

// PayloadTransfer returns the boundary-link payload re-homing hook for
// packets delivered into dstRegion (netem.Link.SetHandoffPayload). Pooled
// payloads — media packets and the feedback/NACK/TWCC control messages —
// are copied into the destination region's pool and the source released;
// FIR and alloc messages are never mutated or recycled and pass through by
// pointer. It runs at window barriers with both shards parked, so touching
// both pools is safe.
func (c *Call) PayloadTransfer(dstRegion int) func(any) any {
	pool := c.pools[dstRegion]
	return func(p any) any {
		if mp, ok := p.(*MediaPacket); ok {
			dup := pool.copyOf(mp)
			releaseMedia(mp)
			return dup
		}
		if dup := pool.copyCtrl(p); dup != nil {
			p.(netem.PayloadReleaser).ReleasePayload()
			return dup
		}
		return p
	}
}

// ControlMsgsLive reports how many pooled control messages (receiver
// reports, NACKs, TWCC reports) drawn from one region's pool are still
// out of it. Every message has one consumer that releases it and netem
// releases the ones it drops, so a stopped, drained call reports zero in
// every region; anything else is a leak (positive) or a double release
// (negative).
func (c *Call) ControlMsgsLive(region int) int { return c.pools[region].ctrlLive }

// latencyLog is one region's end-to-end frame-latency samples, as
// SampleFrameLatency defines them, from all the region's clients: an exact
// run-length table of nanoseconds, so it costs what is distinct, not what
// is recorded.
type latencyLog struct {
	from time.Duration
	stats.RunTable
}

// SampleFrameLatency subscribes to end-to-end frame latency: from now on
// every client records arrival time minus the origin's send stamp for each
// video frame-end packet (not padding, not audio) that arrives at or after
// virtual time from. The sample is taken on arrival, before the origin's
// liveness check and the jitter buffer's verdict: with recovery on, a
// retransmitted or duplicated frame-end counts once per arrival, and one
// the buffer then drops as late still counts. Without a subscription
// nothing is recorded — only the scale and dynamic experiments read these
// samples. Call it before Start; subscribing again restarts the logs.
func (c *Call) SampleFrameLatency(from time.Duration) {
	c.lats = make([]*latencyLog, len(c.pools))
	for i := range c.lats {
		c.lats[i] = &latencyLog{from: from}
	}
	for _, cl := range c.Clients {
		cl.lat = c.lats[cl.region]
	}
}

// FrameLatencyPercentilesMs returns the requested percentiles, in ms, of
// every sample recorded since SampleFrameLatency, all clients together:
// exact order statistics of the region tables merged at read time. Nil
// without a sample. Recording may go on after a read.
func (c *Call) FrameLatencyPercentilesMs(ps ...float64) []float64 {
	tables := make([]*stats.RunTable, len(c.lats))
	for i, l := range c.lats {
		tables[i] = &l.RunTable
	}
	return stats.RunPercentilesMs(tables, ps...)
}

// active returns the clients currently in the call, in join order.
func (c *Call) active() []*Client {
	if !slices.Contains(c.reg.absent, true) {
		return c.Clients
	}
	return slices.DeleteFunc(slices.Clone(c.Clients), func(cl *Client) bool { return c.reg.absent[cl.id] })
}

func (c *Call) clientByName(name string) *Client {
	for _, cl := range c.Clients {
		if cl.Name == name {
			return cl
		}
	}
	return nil
}

// applyLayout computes displayed sets and per-sender budgets (§6), plus
// the relay subscriptions between regions.
func (c *Call) applyLayout(mode ViewMode) {
	active := c.active()
	n := len(active)
	scratch := c.displayedScratch[:0]
	if cap(scratch) < n*n {
		scratch = make([]int32, 0, n*n)
	}
	for i, cl := range active {
		start := len(scratch)
		tiles := c.Prof.VisibleTiles(n)
		for j, other := range active {
			if j == i {
				continue
			}
			if mode == Speaker {
				// Pinned participant always displayed; others as thumbs.
				scratch = append(scratch, other.id)
				continue
			}
			if len(scratch)-start < tiles {
				scratch = append(scratch, other.id)
			}
		}
		c.Servers[cl.region].setDisplayedIDs(cl.id, scratch[start:len(scratch):len(scratch)])
	}
	c.displayedScratch = scratch
	for i, cl := range active {
		cl.SetTierBps(c.senderBudget(mode, n, i == 0))
	}
	c.applyRelayLayout(active)
}

// applyRelayLayout subscribes each region pair: the origins homed in i
// that at least one receiver homed in j displays travel the i→j relay
// leg. Audio always flows; this set gates video only.
func (c *Call) applyRelayLayout(active []*Client) {
	if len(c.Servers) < 2 {
		return
	}
	if len(c.want) < c.reg.cap() {
		c.want = make([]bool, c.reg.cap())
	}
	for i, si := range c.Servers {
		for j, sj := range c.Servers {
			if i == j {
				continue
			}
			for _, id := range c.wantIDs {
				c.want[id] = false
			}
			c.wantIDs = c.wantIDs[:0]
			for _, cl := range active {
				if cl.region != j {
					continue
				}
				for _, o := range sj.displayed[cl.id] {
					if c.home[o] == int32(i) && !c.want[o] {
						c.want[o] = true
						c.wantIDs = append(c.wantIDs, o)
					}
				}
			}
			var origins []int32
			for _, cl := range c.Clients {
				if c.want[cl.id] {
					origins = append(origins, cl.id)
				}
			}
			si.setDisplayedIDs(sj.id, origins)
		}
	}
}

// senderBudget is the layout-imposed video budget for one sender.
func (c *Call) senderBudget(mode ViewMode, n int, pinnedClient bool) float64 {
	p := c.Prof
	var tierRate float64
	switch {
	case mode == Speaker && pinnedClient:
		if p.SpeakerUplinkBps != nil {
			tierRate = p.SpeakerUplinkBps(n)
		} else {
			tierRate = p.TierBps[TierSpeaker]
		}
	case mode == Speaker:
		tierRate = p.TierBps[TierThumb]
	default:
		tierRate = p.TierBps[p.GalleryTier(n)]
	}
	if p.MediaMode == ModeSimulcast {
		// The budget covers both simulcast copies; a TierLow request
		// means "low copy only".
		if tierRate <= p.TierBps[TierLow] {
			return p.SimLowCapBps * 1.3
		}
		return tierRate + p.SimLowCapBps
	}
	return tierRate
}

// Start begins the call: all servers and clients go live.
func (c *Call) Start() {
	c.started = true
	for _, s := range c.Servers {
		s.start()
	}
	for _, cl := range c.active() {
		cl.start(cl.TierBps())
	}
}

// Stop tears the call down.
func (c *Call) Stop() {
	c.started = false
	for _, cl := range c.active() {
		cl.stop()
	}
	for _, s := range c.Servers {
		s.stop()
	}
}

// DrainRecovery empties every down-track's retransmission rings, letting
// go of the packets the slots retain. Call after Stop when inspecting a
// recovery-enabled call: the scenario harness asserts RTXClonesLive()
// is zero afterwards (retained-packet conservation).
func (c *Call) DrainRecovery() {
	for _, s := range c.Servers {
		s.eachRTX((*retransmitter).drain)
	}
}

// What a call builds outlives it (DESIGN.md §7, §13). A dropped origin's
// drained ring, a retired track's cleared send history and, at Call.Release,
// a dead call's rings, histories, region pools, client RNGs, TWCC recorders
// and getStats sample buffers wait here for the next track or call in the
// process. A drained ring and a cleared history are byte-for-byte new ones,
// a reset recorder reports as a new one does (only its ring may have
// grown), a released pool's free packets and messages are zeroed with
// nothing counted out, a taken RNG is re-seeded and a taken sample buffer
// is empty, so where a call's state came from never shows in what it
// sends. The stashes are internal/reuse free lists, which reuse.Drop
// empties.
var stashes = struct {
	rings     *reuse.List[*rtp.RTXRing[rtxEntry]]
	hists     *reuse.List[*rtp.SentHistory]
	pools     *reuse.List[*mpPool]
	rngs      *reuse.List[*rand.Rand]
	recorders *reuse.List[*rtp.TWCCRecorder]
	samples   *reuse.List[[]webrtcstats.Sample]
}{
	reuse.New[*rtp.RTXRing[rtxEntry]](),
	reuse.New[*rtp.SentHistory](),
	reuse.New[*mpPool](),
	reuse.New[*rand.Rand](),
	reuse.New[*rtp.TWCCRecorder](),
	reuse.New[[]webrtcstats.Sample](),
}

// Release ends the call for good and hands what it built to the next call
// in the process (DESIGN.md §7): every down-track's RTX rings are drained
// and its TWCC send history cleared, each region's pool forgets whatever is
// still out of it, each client's TWCC recorder is reset, and those, each
// client's random source and C1's getStats sample buffer wait in
// process-wide stashes for the next NewCascadedCall and RecordStats to
// take. Call it once the call's engines will run no more, stopped or not,
// and everything the caller wants of it has been read: nothing of the call
// may be used afterwards. A second Release does nothing; a call never
// released only forgoes the reuse.
func (c *Call) Release() {
	for _, s := range c.Servers {
		s.eachRTX((*retransmitter).release)
	}
	for _, p := range c.pools {
		p.made, p.ctrlLive = len(p.free), 0
		stashes.pools.Put(p)
	}
	c.pools = nil
	for _, cl := range c.Clients {
		if cl.rng != nil {
			stashes.rngs.Put(cl.rng)
			cl.rng = nil
		}
		if cl.twcc != nil {
			cl.twcc.Reset()
			stashes.recorders.Put(cl.twcc)
			cl.twcc = nil
		}
		if cl.rec != nil && cl.rec.Samples != nil {
			stashes.samples.Put(cl.rec.Samples[:0])
			cl.rec.Samples = nil
		}
	}
}

// RTXClonesLive reports how many references to retained ingress packets
// the RTX ring slots of every down-track in the call hold (zero after
// DrainRecovery, and always zero with recovery off). A slot holds a
// reference, not a clone; the name is what bench/ calls.
func (c *Call) RTXClonesLive() uint64 {
	var n uint64
	for _, s := range c.Servers {
		s.eachRTX(func(r *retransmitter) { n += r.refsLive })
	}
	return n
}

// MediaPacketsLive reports how many media packets drawn from one region's
// pool are still out of it: in flight, or retained by an RTX ring. A
// stopped call whose engine has run dry and whose rings are drained
// reports zero in every region.
func (c *Call) MediaPacketsLive(region int) int { return c.pools[region].mediaLive() }

// PendingNacks sums every client's outstanding NACK-queue depth. Client
// stop flushes its jitter buffers, so a stopped call reports zero.
func (c *Call) PendingNacks() int {
	n := 0
	for _, cl := range c.Clients {
		for _, id := range cl.nackOrder {
			n += cl.recv[id].jb.q.Len()
		}
	}
	return n
}

// Leave removes the named client from the call mid-flight. Every server
// drops its per-client state (uplink receiver, rate estimators, legs,
// forwarding entries), every remaining client releases its receiver slot,
// the layout re-flows for the remaining participants, and the host stays
// wired for a later Rejoin. The participant keeps its ID, marked absent.
func (c *Call) Leave(name string) {
	cl := c.clientByName(name)
	if cl == nil || c.reg.absent[cl.id] {
		return
	}
	c.eng.Tracer().Churn(c.eng.Now(), name, "leave", "")
	c.reg.absent[cl.id] = true
	if c.started {
		cl.stop()
	}
	n := len(c.active())
	for _, s := range c.Servers {
		s.remove(cl.id)
		s.n = n // layout factors like Teams' ForwardFactor depend on it
	}
	for _, other := range c.Clients {
		if other != cl {
			other.dropOrigin(cl.id)
		}
	}
	cl.clearRecv()
	c.applyLayout(c.mode)
	c.refreshSelection()
}

// Rejoin re-attaches a client that previously left, under its own ID:
// Leave cleared every table slot the ID indexes, so server state is
// recreated from scratch, the layout re-flows, and the client restarts
// its media if the call is live.
func (c *Call) Rejoin(name string) {
	cl := c.clientByName(name)
	if cl == nil || !c.reg.absent[cl.id] {
		return
	}
	c.eng.Tracer().Churn(c.eng.Now(), name, "rejoin", "")
	c.reg.absent[cl.id] = false
	n := len(c.active())
	for i, s := range c.Servers {
		if i == cl.region {
			s.addClient(cl.id)
		} else {
			s.addRemoteOrigin(c.Servers[cl.region].id, cl.id)
		}
		s.n = n
	}
	c.applyLayout(c.mode)
	c.refreshSelection()
	if c.started {
		cl.start(cl.TierBps())
	}
}

// SetMode switches the call's viewing modality mid-flight (every
// participant pinning the speaker, or un-pinning back to gallery): the
// layout re-flows, sender budgets update, and every server's selection
// state refreshes immediately rather than waiting for the next control
// tick.
func (c *Call) SetMode(mode ViewMode) {
	if c.mode == mode {
		return
	}
	detail := "gallery"
	if mode == Speaker {
		detail = "speaker"
	}
	c.eng.Tracer().Churn(c.eng.Now(), "", "mode", detail)
	c.mode = mode
	c.applyLayout(mode)
	c.refreshSelection()
}

// refreshSelection re-runs selection on every server after a mid-call
// layout or membership change (no-op while the call is not started).
func (c *Call) refreshSelection() {
	for _, s := range c.Servers {
		s.refreshSelection()
	}
}

// IDSpace reports the size of the call's participant-ID space — the
// density ceiling of every ID-indexed routing table. Every client and SFU
// holds one ID for the whole call, so it is len(Clients)+len(Servers)
// however the call churns; churn tests assert exactly that.
func (c *Call) IDSpace() int { return c.reg.cap() }

// Active reports whether the named client is currently in the call.
func (c *Call) Active(name string) bool {
	return c.reg.id(name) != noID && c.clientByName(name) != nil
}

// C1 returns the instrumented client (client 0).
func (c *Call) C1() *Client { return c.Clients[0] }

// MeanFreezeRatio is the call's freeze figure: the mean freeze ratio over
// every (receiver, displayed origin) pair that displayed at least one
// frame, clients in call order, or 0 when nothing was displayed.
func (c *Call) MeanFreezeRatio() float64 {
	var sum float64
	var n int
	for _, cl := range c.Clients {
		for _, origin := range cl.Origins() {
			if r := cl.Receiver(origin); r.DisplayedFrames() > 0 {
				sum += r.FreezeRatio()
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// String identifies the call.
func (c *Call) String() string {
	if len(c.Servers) > 1 {
		return fmt.Sprintf("%s call, %d clients, %d regions", c.Prof.Name, len(c.Clients), len(c.Servers))
	}
	return fmt.Sprintf("%s call, %d clients", c.Prof.Name, len(c.Clients))
}
