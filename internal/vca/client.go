package vca

import (
	"math/rand"
	"slices"
	"sort"
	"time"

	"vcalab/internal/cc"
	"vcalab/internal/codec"
	"vcalab/internal/media"
	"vcalab/internal/netem"
	"vcalab/internal/obs"
	"vcalab/internal/rtp"
	"vcalab/internal/sim"
	"vcalab/internal/stats"
	"vcalab/internal/webrtcstats"
)

// Client is one VCA participant: a media sender (source → encoder →
// packetizer → host) plus an inbound track per remote origin (jitter buffer,
// when built with one → media receiver), with RTCP-style feedback loops at
// 100 ms cadence. What kind of call it is in — encoding strategy, recovery on
// or off — is decided where the parts are built, in newClient and track; the
// packet path and the tickers call the parts and ask nothing (DESIGN.md §8).
// Receive-side state is index-addressed by the call registry's dense
// participant IDs and every loop runs over an explicit order list, so
// aggregate statistics and uplink packet order stay byte-identical.
type Client struct {
	Name string

	eng  *sim.Engine
	prof *Profile
	host *netem.Host
	// home is the SFU this client is homed on: where its packets go, and
	// where getStats reads the outbound-rtp recovery counters (the SFU
	// answers NACKs on this client's behalf, so they live there).
	home      *Server
	reg       *registry
	id        int32 // own registry ID, for the whole call
	region    int   // home region index (stable across churn)
	rng       *rand.Rand
	startedAt time.Duration

	// --- sender ---
	ccUp       cc.Controller
	enc        videoEncoder
	topLayer   int     // highest layer index enc emits (frame-end marker placement)
	tierBps    float64 // layout-imposed video cap
	stallUntil time.Duration
	seq        uint16
	pad        padBudget

	// --- receiver ---
	recv []inbound // origin ID -> receive track (zero until first packet)
	// recvOrder lists the IDs of live tracks in sorted-name order,
	// maintained on insert so the 10 Hz feedback and 1 Hz stats ticks
	// iterate deterministically and allocation-free: feedbackTick sums
	// floats in it, so the order is in the report's bits.
	// nackOrder lists the tracks built with a jitter buffer in creation
	// order, the order recoveryTick puts NACKs on the uplink in. Both are
	// output-visible and they differ (a rejoiner is created last but sorts
	// by name), so neither replaces the other.
	recvOrder, nackOrder []int32
	// recovery has track build a participant origin's track with a jitter
	// buffer; off, every track is built without one. twcc records arrivals
	// for the home SFU's per-leg controllers; nil where recovery is off or
	// the SFU has none to feed (pure relays).
	recovery bool
	twcc     *rtp.TWCCRecorder

	// --- hot-path caches ---
	pool *mpPool // the home region's payload free lists
	// flows caches the per-stream accounting labels by rate key; flowRtcp
	// and flowSignal are the feedback and FIR labels. Building these per
	// packet would allocate.
	flows      [rkSVC + 1]string
	flowRtcp   string
	flowSignal string

	// strayRecv backs Receiver() calls for names not in the call
	// (misspellings, probes, departed participants): read-style lookups
	// must never grow the registry or a track table. Cold path only.
	strayRecv map[string]*media.Receiver

	// --- instrumentation ---
	UpMeter   *stats.Meter          // bytes this client put on the wire
	DownMeter *stats.Meter          // bytes delivered to this client
	rec       *webrtcstats.Recorder // set by RecordStats; nil samples nothing
	// FIRsForMyVideo counts FIR messages received for this client's
	// outbound video (the paper's Fig 3b metric).
	FIRsForMyVideo int
	// lastRTT retains the RTT the uplink controller last saw, for the
	// metrics sampler and candidate-pair snapshots.
	lastRTT time.Duration
	// lat, when set (Call.SampleFrameLatency), is the home region's
	// frame-latency log; nil records nothing.
	lat *latencyLog

	tickers []*sim.Ticker
	running bool
}

// videoEncoder is what a client asks of its encoding strategy — one of
// codec's three, chosen from the profile's media mode in newClient.
type videoEncoder interface {
	// SetTarget sets the total video budget; SetLowAlloc the SFU's low-copy
	// allocation within it (AllocMsg; only a simulcast has one to resize).
	SetTarget(bps float64)
	SetLowAlloc(bps float64)
	// Tick returns this capture tick's frames, valid until the next Tick.
	Tick(now time.Duration) []*codec.Frame
	RequestKeyframe()
	// Params are the main outbound stream's current encode parameters.
	Params() codec.EncodeParams
}

// The control cadences and conventions every client and SFU share.
const (
	// reportInterval is the RTCP receiver-report cadence: the client's
	// feedback tick and the SFU's control tick, whose per-origin rate
	// estimate (receiver.tick) divides one interval's bytes by it.
	reportInterval = 100 * time.Millisecond
	// padInterval is the padding/probe budget's tick (padBudget.due).
	padInterval = 20 * time.Millisecond
	// rttBase is the synthetic RTT's fixed part: a controller sees
	// 2×queue delay + rttBase.
	rttBase = 40 * time.Millisecond
	// twccWindow is the TWCC sequence window, on the client's arrival
	// recorder and the SFU's send history alike.
	twccWindow = 2048
)

// Audio is one constant stream in every VCA, never adapted; the video
// budgets (videoTarget, downTrack.share) set audioBps aside for it.
const (
	audioPacketsPerSec = 50
	audioPayloadBytes  = 100
	audioBps           = audioPacketsPerSec * audioPayloadBytes * 8 // 40 kbps
)

// newClient builds one participant homed on the given SFU, with loss
// recovery's client half when recovery is set.
func newClient(eng *sim.Engine, prof *Profile, name string, host *netem.Host, reg *registry, home *Server, region int, pool *mpPool, seed int64, recovery bool) *Client {
	c := &Client{
		Name:       name,
		eng:        eng,
		prof:       prof,
		host:       host,
		home:       home,
		reg:        reg,
		id:         reg.intern(name, false),
		region:     region,
		recv:       make([]inbound, reg.cap()),
		recovery:   recovery,
		pool:       pool,
		flowRtcp:   prof.Name + "/" + name + "/rtcp",
		flowSignal: prof.Name + "/" + name + "/signal",
		UpMeter:    stats.NewMeter(time.Second),
		DownMeter:  stats.NewMeter(time.Second),
	}
	if c.rng = stashes.rngs.Take(); c.rng == nil {
		c.rng = rand.New(rand.NewSource(seed))
	} else {
		c.rng.Seed(seed) // rebuilds the source: the stream is NewSource(seed)'s
	}
	src := codec.NewSource(c.rng)
	switch prof.MediaMode {
	case ModeSimulcast:
		c.enc = codec.NewSimulcast(prof.LowLadder, prof.Ladder, prof.SimLowCapBps, prof.SimMinHighBps, src, c.rng)
	case ModeSVC:
		c.enc, c.topLayer = codec.NewSVC(prof.Ladder, prof.SVCSplit, src, c.rng), len(prof.SVCSplit)-1
	default:
		c.enc = codec.NewEncoder("video", prof.Ladder, src, c.rng)
	}
	// TWCC is only generated when the home SFU runs per-leg controllers
	// that could consume it (pure relays have none).
	if recovery && prof.NewServerCC != nil {
		if c.twcc = stashes.recorders.Take(); c.twcc == nil {
			c.twcc = rtp.NewTWCCRecorder(twccWindow)
		}
	}
	host.HandleFunc(PortMedia, c.onMedia)
	host.HandleFunc(PortFeedback, c.onFeedback)
	host.HandleFunc(PortSignal, c.onSignal)
	return c
}

// SetTierBps sets the layout-imposed cap on this client's video target
// (§6: tile size determines the requested resolution).
func (c *Client) SetTierBps(bps float64) { c.tierBps = bps }

// TierBps returns the current layout cap.
func (c *Client) TierBps() float64 { return c.tierBps }

// CC exposes the uplink congestion controller (for tests).
func (c *Client) CC() cc.Controller { return c.ccUp }

// Receiver returns the media receiver tracking origin's stream, creating
// it on first use. Experiments and tests address receivers by name; the
// packet path uses track directly. Names outside the call get a stable
// detached receiver rather than a registry entry.
func (c *Client) Receiver(origin string) *media.Receiver {
	if id := c.reg.id(origin); id != noID {
		return c.track(id).recv
	}
	if c.strayRecv == nil {
		c.strayRecv = map[string]*media.Receiver{}
	}
	r, ok := c.strayRecv[origin]
	if !ok {
		r = media.NewReceiver()
		c.strayRecv[origin] = r
	}
	return r
}

// track returns (building on first use) the receive track for one origin
// ID. This is the one place recovery is decided on the client: a
// participant origin in a recovery-on call gets a jitter buffer; an SFU's
// probe padding (constant seq) and every origin of a recovery-off call get
// none. A new track enters recvOrder at its name's sorted position and, if
// buffered, nackOrder at the end.
func (c *Client) track(origin int32) *inbound {
	for int(origin) >= len(c.recv) {
		c.recv = append(c.recv, inbound{})
	}
	t := &c.recv[origin]
	if t.recv == nil {
		t.recv = media.NewReceiver()
		name := c.reg.name(origin)
		t.recv.OnFIR = func(now time.Duration) {
			post(c.host, c.home.Name, PortSignal, firWire, c.flowSignal, &FIRMsg{Origin: name})
		}
		if c.recovery && !c.reg.isServer(origin) {
			t.jb = newJitterBuffer()
			c.nackOrder = append(c.nackOrder, origin)
		}
		i := sort.Search(len(c.recvOrder), func(i int) bool {
			return c.reg.name(c.recvOrder[i]) >= name
		})
		c.recvOrder = slices.Insert(c.recvOrder, i, origin)
	}
	return t
}

// dropOrigin releases the track of a departed participant — receiver and
// jitter buffer together, so a rejoin under the same ID starts both fresh.
func (c *Client) dropOrigin(origin int32) {
	if int(origin) >= len(c.recv) || c.recv[origin].recv == nil {
		return
	}
	c.recv[origin] = inbound{}
	gone := func(id int32) bool { return id == origin }
	c.recvOrder = slices.DeleteFunc(c.recvOrder, gone)
	c.nackOrder = slices.DeleteFunc(c.nackOrder, gone)
}

// clearRecv drops every track (the client itself is leaving the call).
func (c *Client) clearRecv() {
	clear(c.recv)
	c.recvOrder, c.nackOrder = c.recvOrder[:0], c.nackOrder[:0]
}

// start begins media flow and feedback/stat tickers.
func (c *Client) start(nominalVideoBps float64) {
	c.running = true
	c.startedAt = c.eng.Now()
	c.ccUp = c.prof.NewClientCC(nominalVideoBps)

	c.tickers = append(c.tickers, c.eng.EveryHandler(time.Second/codec.CaptureHz, sim.HandlerFunc(c.videoTick)))
	c.tickers = append(c.tickers, c.eng.EveryHandler(time.Second/audioPacketsPerSec, sim.HandlerFunc(c.audioTick)))
	c.tickers = append(c.tickers, c.eng.EveryHandler(padInterval, sim.HandlerFunc(c.padTick)))
	c.tickers = append(c.tickers, c.eng.EveryHandler(reportInterval, sim.HandlerFunc(c.feedbackTick)))
	// WebRTC-stats sampling at 1 s (§3.2), for a client that subscribed.
	if c.rec != nil {
		c.tickers = append(c.tickers, c.eng.EveryHandler(time.Second, sim.HandlerFunc(c.statsTick)))
	}
	// Loss recovery, armed from what newClient built: the NACK/concession
	// tick where tracks get jitter buffers, the TWCC report tick where
	// there is a recorder.
	if c.recovery {
		c.tickers = append(c.tickers, c.eng.EveryHandler(nackTick, sim.HandlerFunc(c.recoveryTick)))
	}
	if c.twcc != nil {
		c.tickers = append(c.tickers, c.eng.EveryHandler(twccInterval, sim.HandlerFunc(c.twccTick)))
	}
}

// stop halts all activity (call teardown).
func (c *Client) stop() {
	for _, id := range c.nackOrder {
		c.recv[id].flush(c.eng.Now()) // a rejoin must not inherit stale seq state
	}
	c.twcc.Reset()
	c.running = false
	for _, t := range c.tickers {
		t.Stop()
	}
	c.tickers = nil
}

// videoTarget computes the current encoder budget.
func (c *Client) videoTarget() float64 {
	t := c.ccUp.TargetBps() - audioBps
	if c.tierBps > 0 && t > c.tierBps {
		t = c.tierBps
	}
	if t < 30_000 {
		t = 30_000
	}
	return t
}

func (c *Client) videoTick(now time.Duration) {
	if !c.running {
		return
	}
	// Random encoder pipeline stalls (Teams-Chrome quirk, §3.2).
	if now < c.stallUntil {
		return
	}
	if c.prof.StallEvery > 0 {
		tickP := (time.Second / codec.CaptureHz).Seconds() / c.prof.StallEvery.Seconds()
		if c.rng.Float64() < tickP {
			c.stallUntil = now + c.prof.StallDur
			return
		}
	}
	// Frames belong to the encoder until its next Tick; sendFrame copies
	// every field it needs into the packets before returning.
	c.enc.SetTarget(c.videoTarget())
	for _, f := range c.enc.Tick(now) {
		c.sendFrame(f)
	}
}

// sendFrame packetizes one encoded frame into RTP-sized packets.
func (c *Client) sendFrame(f *codec.Frame) {
	rk := streamRK(f.StreamID)
	remaining := f.Bytes
	for remaining > 0 {
		chunk := remaining
		if chunk > maxPayload {
			chunk = maxPayload
		}
		remaining -= chunk
		last := remaining == 0
		mp := c.pool.get()
		mp.OriginID = c.id
		mp.RK = rk
		mp.Layer = uint8(f.Layer)
		mp.SSRC = 1
		mp.Seq = c.seq
		mp.FrameSeq = int32(f.FrameSeq)
		mp.LayerEnd = last
		mp.FrameEnd = last && f.Layer == c.topLayer
		mp.Keyframe = f.Keyframe
		if mp.LayerEnd {
			mp.setParams(f.Params)
		}
		c.seq++
		c.send(mp, chunk+wireOverhead)
	}
}

// audioTick sends one audio packet, audioPacketsPerSec times a second.
func (c *Client) audioTick(time.Duration) {
	if !c.running {
		return
	}
	mp := c.pool.get()
	mp.OriginID = c.id
	mp.RK = rkAudio
	mp.SSRC, mp.Seq, mp.Audio = 2, c.seq, true
	c.seq++
	c.send(mp, audioPayloadBytes+wireOverhead)
}

// padTick emits FEC/probe padding at the controller's requested rate
// (Zoom's probe bursts, GCC recovery probes).
func (c *Client) padTick(now time.Duration) {
	if !c.running || c.ccUp == nil {
		return
	}
	for n := c.pad.due(now, c.ccUp); n > 0; n-- {
		mp := c.pool.get()
		mp.OriginID = c.id
		mp.RK = rkPad
		mp.SSRC, mp.Seq, mp.Padding = 1, c.seq, true
		c.seq++
		c.send(mp, maxPayload+wireOverhead)
	}
}

// flowFor returns the cached accounting label for one of this client's
// streams, index-addressed by rate key.
func (c *Client) flowFor(rk uint8) string {
	if c.flows[rk] == "" {
		c.flows[rk] = c.prof.Name + "/" + c.Name + "/" + streamName(rk)
	}
	return c.flows[rk]
}

func (c *Client) send(mp *MediaPacket, wireBytes int) {
	now := c.eng.Now()
	mp.OriginSentAt = now
	c.UpMeter.AddBytes(now, wireBytes)
	post(c.host, c.home.Name, PortMedia, wireBytes, c.flowFor(mp.RK), mp)
}

// onMedia handles a forwarded media packet from the SFU, dispatching to
// the inbound track by the packet's stamped origin ID. The packet's
// payload is consumed here: it goes back to the call's media pool.
func (c *Client) onMedia(pkt *netem.Packet) {
	mp, ok := pkt.Payload.(*MediaPacket)
	if !ok {
		return
	}
	if !c.running {
		releaseMedia(mp)
		return
	}
	now := c.eng.Now()
	c.DownMeter.AddBytes(now, pkt.Size)
	if c.lat != nil && mp.FrameEnd && !mp.Padding && !mp.Audio && now >= c.lat.from {
		// OriginSentAt survives SFU forwarding (and cascading), so the
		// sample spans the whole origin→receiver path.
		c.lat.Add(now - mp.OriginSentAt)
	}
	sentAt := pkt.SentAt
	if mp.E2E {
		// Pass-through relay (Teams): the delay signal spans the whole
		// path, uplink queueing included (abs-send-time semantics).
		sentAt = mp.OriginSentAt
	}
	if mp.TWSeq != 0 { // stamped: the home SFU wants its arrival reported
		c.twcc.Record(mp.TWSeq, int64(now/time.Microsecond))
	}
	if c.reg.live(mp.OriginID) {
		if !c.track(mp.OriginID).onPacket(now, mp, pkt.Size, sentAt, c.lastRTT) {
			c.eng.Tracer().Recovery(obs.EvJBLate, now, c.Name, c.reg.name(mp.OriginID), int(mp.Seq))
		} else if mp.RTX {
			c.eng.Tracer().Recovery(obs.EvRTXDeliver, now, c.Name, c.reg.name(mp.OriginID), int(mp.Seq))
		}
	}
	releaseMedia(mp)
}

// recoveryTick runs each buffered track's NACK retry machine: emit due
// NACKs (bounded retries, RTT-derived backoff) and concede seqs past their
// playout deadline or retry budget. start arms it only where tracks are
// built with buffers.
func (c *Client) recoveryTick(now time.Duration) {
	if !c.running {
		return
	}
	backoff := max(nackMinBackoff, c.lastRTT)
	tr := c.eng.Tracer()
	for _, id := range c.nackOrder {
		t := &c.recv[id]
		b := t.jb
		if b.q.Len() == 0 {
			continue
		}
		origin := c.reg.name(id)
		seqs := b.nackScratch[:0]
		b.tick(now, backoff, t.recv,
			func(seq uint16) {
				seqs = append(seqs, seq)
				tr.Recovery(obs.EvNackSent, now, c.Name, origin, int(seq))
			},
			func(seq uint16) { tr.Recovery(obs.EvNackGiveUp, now, c.Name, origin, int(seq)) },
			func(n int) { tr.Recovery(obs.EvJBConcede, now, c.Name, origin, n) })
		b.nackScratch = seqs
		if len(seqs) > 0 {
			c.sendNack(id, seqs)
		}
	}
}

// sendNack requests retransmission of missing seqs in one origin's
// per-leg sequence space.
func (c *Client) sendNack(origin int32, seqs []uint16) {
	m := c.pool.getNack()
	m.FromID, m.Origin = c.id, origin
	m.Pairs = rtp.AppendNackPairs(m.Pairs, seqs)
	post(c.host, c.home.Name, PortFeedback, nackWireBase+4*len(m.Pairs), c.flowRtcp, m)
}

// twccTick flushes the transport-wide arrival record into one report.
// start arms it only where there is a recorder.
func (c *Client) twccTick(now time.Duration) {
	if !c.running {
		return
	}
	m := c.pool.getTWCC()
	rep, ok := c.twcc.AppendReport(m.Report.DeltaUs)
	if !ok {
		m.ReleasePayload()
		return
	}
	m.FromID, m.Report = c.id, rep
	post(c.host, c.home.Name, PortFeedback, twccWireBase+4*len(rep.DeltaUs), c.flowRtcp, m)
}

// onFeedback handles receiver reports about this client's uplink. The
// report is consumed here: it goes back to its pool on every path.
func (c *Client) onFeedback(pkt *netem.Packet) {
	fb, ok := pkt.Payload.(*FeedbackMsg)
	if !ok {
		return
	}
	defer fb.ReleasePayload()
	if !c.running || c.ccUp == nil {
		return
	}
	in := reportFeedback(c.eng.Now(), fb.Stats)
	c.lastRTT = in.RTT
	feedCC(c.ccUp, in, c.eng.Tracer(), c.Name, "")
}

// onSignal handles FIR and allocation messages arriving from the server.
func (c *Client) onSignal(pkt *netem.Packet) {
	if !c.running {
		return
	}
	switch m := pkt.Payload.(type) {
	case *FIRMsg:
		c.FIRsForMyVideo++
		c.enc.RequestKeyframe()
	case *AllocMsg:
		// The SFU asks for a reduced low copy: some receiver is starved.
		c.enc.SetLowAlloc(m.LowBps)
	}
}

// feedbackTick aggregates all receive legs into one report to the server.
func (c *Client) feedbackTick(now time.Duration) {
	if !c.running {
		return
	}
	var agg media.IntervalStats
	var expectedSum int
	var lossWeighted float64
	for _, id := range c.recvOrder {
		t := &c.recv[id]
		st := t.recv.Take(now)
		// Discount recovered retransmissions: CC must still see the
		// original losses (RTX rides a separate budget in real VCAs), or
		// recovery would mask congestion from the controllers.
		if rtxPkts, rtxBytes := t.jb.takeInterval(); rtxPkts > 0 && st.Expected > 0 {
			if st.Interval > 0 {
				st.RateBps -= float64(rtxBytes) * 8 / st.Interval.Seconds()
			}
			lost := st.LossFraction*float64(st.Expected) + float64(rtxPkts)
			st.LossFraction = min(1, lost/float64(st.Expected))
		}
		agg.RateBps += st.RateBps
		expectedSum += st.Expected
		lossWeighted += st.LossFraction * float64(st.Expected)
		if st.QueueDelay > agg.QueueDelay {
			agg.QueueDelay = st.QueueDelay
		}
		agg.Received += st.Received
		agg.Interval = st.Interval
	}
	agg.Expected = expectedSum
	if expectedSum > 0 {
		agg.LossFraction = lossWeighted / float64(expectedSum)
	}
	if agg.Interval == 0 {
		agg.Interval = reportInterval
	}
	post(c.host, c.home.Name, PortFeedback, feedbackWire, c.flowRtcp, c.pool.getFeedback(c.id, agg))
}

// RecordStats subscribes this client to per-second getStats sampling (§3.2's
// instrumented C1) and returns the recorder; without it nothing is sampled.
// Call it before Start; it is idempotent and outlives Leave and Rejoin.
func (c *Client) RecordStats() *webrtcstats.Recorder {
	if c.rec == nil {
		c.rec = &webrtcstats.Recorder{Samples: stashes.samples.Take()}
	}
	return c.rec
}

// statsTick samples the WebRTC-stats emulation (1 Hz, §3.2).
func (c *Client) statsTick(now time.Duration) {
	if !c.running {
		return
	}
	s := webrtcstats.Sample{T: now - c.startedAt}
	s.Out = c.enc.Params()
	s.FIRCount = c.FIRsForMyVideo
	// Inbound: aggregate over origins (2-party calls have exactly one).
	// Pick the params of the busiest video stream deterministically —
	// padding-only receivers (server probes) carry no params.
	var frames, bestFrames int
	for _, id := range c.recvOrder {
		r := c.recv[id].recv
		if r.DisplayedFrames() >= bestFrames && r.LastParams.Width > 0 {
			bestFrames = r.DisplayedFrames()
			s.In = r.LastParams
		}
		frames += r.DisplayedFrames()
	}
	s.InFramesTotal = frames
	c.rec.Samples = append(c.rec.Samples, s)
}

// Host exposes the client's network host (for instrumentation).
func (c *Client) Host() *netem.Host { return c.host }

// Origins returns the sorted names of every remote participant this
// client has received media from. SFUs are excluded: their probe padding
// creates a rate-only receiver, not a participant.
func (c *Client) Origins() []string {
	names := make([]string, 0, len(c.recvOrder))
	for _, id := range c.recvOrder {
		if !c.reg.isServer(id) {
			names = append(names, c.reg.name(id))
		}
	}
	return names // recvOrder is name-sorted already
}
