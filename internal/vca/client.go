package vca

import (
	"math/rand"
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
// packetizer → host) plus a media receiver per remote participant, with
// RTCP-style feedback loops at 100 ms cadence. Receive-side state is
// index-addressed by the call registry's dense participant IDs; the 10 Hz
// feedback and 1 Hz stats ticks iterate an explicit order list that
// preserves the sorted-name order of the string-keyed implementation, so
// aggregate statistics stay byte-identical.
type Client struct {
	Name string

	eng       *sim.Engine
	prof      *Profile
	host      *netem.Host
	server    string // server host name
	reg       *registry
	id        int32 // own registry ID (refreshed on rejoin)
	region    int   // home region index (stable across churn)
	rng       *rand.Rand
	startedAt time.Duration

	// --- sender ---
	ccUp       cc.Controller
	single     *codec.Encoder
	simul      *codec.Simulcast
	svc        *codec.SVC
	tierBps    float64 // layout-imposed video cap
	lowAlloc   float64 // Meet SFU low-copy allocation (0 = default)
	stallUntil time.Duration
	seq        uint16
	pad        padBudget

	// --- receiver ---
	recv []*media.Receiver // origin ID -> receiver (nil until first packet)
	// recvOrder lists the IDs of live receivers in sorted-name order,
	// maintained on insert so the 10 Hz feedback and 1 Hz stats ticks
	// iterate deterministically and allocation-free, in the exact order
	// the string-keyed implementation used.
	recvOrder []int32

	// --- hot-path caches ---
	pool *mpPool // the home region's payload free lists
	// flows caches the per-stream accounting labels by rate key; flowRtcp
	// and flowSignal are the feedback and FIR labels. Building these per
	// packet would allocate.
	flows      [rkSVC + 1]string
	flowRtcp   string
	flowSignal string

	// strayRecv backs Receiver() calls for names outside the call's
	// registry (misspellings, probes): read-style lookups must never
	// mutate the registry — interning a stranger could steal a freed ID
	// out from under a later Rejoin. Cold path only.
	strayRecv map[string]*media.Receiver

	// rec, when non-nil, is the loss-recovery state (recovery.go):
	// per-origin jitter buffers, NACK scheduling, TWCC recording. Nil
	// unless CallOptions.Recovery — the recovery-off packet path is
	// exactly the pre-recovery one. homeSrv points at the home SFU for
	// read-only stats (the SFU answers NACKs on this client's behalf,
	// so the outbound-rtp recovery counters live there).
	rec     *clientRecovery
	homeSrv *Server

	// --- instrumentation ---
	UpMeter   *stats.Meter // bytes this client put on the wire
	DownMeter *stats.Meter // bytes delivered to this client
	Recorder  *webrtcstats.Recorder
	// FIRsForMyVideo counts FIR messages received for this client's
	// outbound video (the paper's Fig 3b metric).
	FIRsForMyVideo int
	// tracer, when set (Call.SetTracer), records uplink CC decisions.
	tracer *obs.Tracer
	// lastRTT retains the RTT the uplink controller last saw, for the
	// metrics sampler and candidate-pair snapshots.
	lastRTT time.Duration
	// lat, when set (Call.SampleFrameLatency), is the home region's
	// frame-latency log; nil records nothing.
	lat *latencyLog

	tickers []*sim.Ticker
	running bool
}

func newClient(eng *sim.Engine, prof *Profile, name string, host *netem.Host, reg *registry, server string, region int, pool *mpPool, seed int64) *Client {
	c := &Client{
		Name:       name,
		eng:        eng,
		prof:       prof,
		host:       host,
		server:     server,
		reg:        reg,
		id:         reg.intern(name, false),
		region:     region,
		rng:        rand.New(rand.NewSource(seed)),
		recv:       make([]*media.Receiver, reg.cap()),
		pool:       pool,
		flowRtcp:   prof.Name + "/" + name + "/rtcp",
		flowSignal: prof.Name + "/" + name + "/signal",
		UpMeter:    stats.NewMeter(time.Second),
		DownMeter:  stats.NewMeter(time.Second),
		Recorder:   webrtcstats.NewRecorder(),
	}
	src := codec.NewSource(c.rng)
	keyInt := prof.KeyInterval
	if keyInt == 0 {
		keyInt = 10 * time.Second
	}
	switch prof.MediaMode {
	case ModeSimulcast:
		c.simul = codec.NewSimulcast(prof.LowLadder, prof.Ladder, prof.SimLowCapBps, prof.SimMinHighBps, src, c.rng)
		c.simul.Low.KeyInterval = keyInt
		c.simul.High.KeyInterval = keyInt
	case ModeSVC:
		c.svc = codec.NewSVC(prof.Ladder, prof.SVCSplit, src, c.rng)
		c.svc.SetKeyInterval(keyInt)
	default:
		c.single = codec.NewEncoder("video", prof.Ladder, src, c.rng)
		c.single.KeyInterval = keyInt
	}
	host.HandleFunc(PortMedia, c.onMedia)
	host.HandleFunc(PortFeedback, c.onFeedback)
	host.HandleFunc(PortSignal, c.onSignal)
	return c
}

// enableRecovery attaches loss-recovery state (called once at call
// construction when CallOptions.Recovery is set). TWCC is only
// generated when the home SFU runs per-leg controllers that could
// consume it (pure relays have none).
func (c *Client) enableRecovery(cfg RecoveryConfig) {
	c.rec = newClientRecovery(cfg, len(c.recv), c.prof.NewServerCC != nil)
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
// packet path uses receiverByID directly. Names outside the call get a
// stable detached receiver rather than a registry entry.
func (c *Client) Receiver(origin string) *media.Receiver {
	if id := c.reg.id(origin); id != noID {
		return c.receiverByID(id)
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

// receiverByID returns (creating on first use) the receiver slot for one
// origin ID. New receivers enter recvOrder at their name's sorted position.
func (c *Client) receiverByID(origin int32) *media.Receiver {
	for int(origin) >= len(c.recv) {
		c.recv = append(c.recv, nil)
	}
	r := c.recv[origin]
	if r == nil {
		r = media.NewReceiver()
		name := c.reg.name(origin)
		r.OnFIR = func(now time.Duration) {
			post(c.host, c.server, PortSignal, firWire, c.flowSignal, &FIRMsg{From: c.Name, Origin: name})
		}
		c.recv[origin] = r
		i := sort.Search(len(c.recvOrder), func(i int) bool {
			return c.reg.name(c.recvOrder[i]) >= name
		})
		c.recvOrder = append(c.recvOrder, 0)
		copy(c.recvOrder[i+1:], c.recvOrder[i:])
		c.recvOrder[i] = origin
	}
	return r
}

// dropOrigin releases the receiver slot for a departed participant, so a
// recycled ID can never alias its accumulated state.
func (c *Client) dropOrigin(origin int32) {
	if int(origin) >= len(c.recv) || c.recv[origin] == nil {
		return
	}
	c.recv[origin] = nil
	for i, id := range c.recvOrder {
		if id == origin {
			c.recvOrder = append(c.recvOrder[:i], c.recvOrder[i+1:]...)
			break
		}
	}
	if c.rec != nil {
		c.rec.drop(origin)
	}
}

// clearRecv drops every receiver (the client itself is leaving the call).
func (c *Client) clearRecv() {
	for i := range c.recv {
		c.recv[i] = nil
	}
	c.recvOrder = c.recvOrder[:0]
	if c.rec != nil {
		c.rec.clear()
	}
}

// start begins media flow and feedback/stat tickers.
func (c *Client) start(nominalVideoBps float64) {
	c.running = true
	c.startedAt = c.eng.Now()
	c.ccUp = c.prof.NewClientCC(nominalVideoBps)

	// Video capture tick (30 Hz).
	c.tickers = append(c.tickers, c.eng.EveryHandler(time.Second/30, sim.HandlerFunc(c.videoTick)))
	// Audio: 50 packets/s of 100 B payload = 40 kbps.
	c.tickers = append(c.tickers, c.eng.EveryHandler(time.Second/50, sim.HandlerFunc(c.audioTick)))
	// Padding / probing budget (20 ms granularity).
	c.tickers = append(c.tickers, c.eng.EveryHandler(20*time.Millisecond, sim.HandlerFunc(c.padTick)))
	// Receiver feedback at 100 ms.
	c.tickers = append(c.tickers, c.eng.EveryHandler(100*time.Millisecond, sim.HandlerFunc(c.feedbackTick)))
	// WebRTC-stats sampling at 1 s (§3.2: per-second granularity).
	c.tickers = append(c.tickers, c.eng.EveryHandler(time.Second, sim.HandlerFunc(c.statsTick)))
	// Loss recovery (recovery on only): NACK/concession tick, plus the
	// TWCC report tick where the SFU has controllers to feed.
	if c.rec != nil {
		c.tickers = append(c.tickers, c.eng.EveryHandler(c.rec.cfg.NackTick, sim.HandlerFunc(c.recoveryTick)))
		if c.rec.twcc != nil {
			c.tickers = append(c.tickers, c.eng.EveryHandler(c.rec.cfg.TWCCInterval, sim.HandlerFunc(c.twccTick)))
		}
	}
}

// stop halts all activity (call teardown).
func (c *Client) stop() {
	if c.rec != nil {
		// Deliver buffered stragglers, concede every pending gap: drained
		// runs must end with empty NACK queues, and a rejoin must not
		// inherit stale seq state.
		now := c.eng.Now()
		c.rec.flushAll(now, func(id int32) packetSink { return c.receiverByID(id) })
		if c.rec.twcc != nil {
			c.rec.twcc.Reset()
		}
	}
	c.running = false
	for _, t := range c.tickers {
		t.Stop()
	}
	c.tickers = nil
}

// videoTarget computes the current encoder budget.
func (c *Client) videoTarget() float64 {
	t := c.ccUp.TargetBps() - c.prof.AudioBps
	if c.tierBps > 0 && t > c.tierBps {
		t = c.tierBps
	}
	if t < 30_000 {
		t = 30_000
	}
	return t
}

//vca:hotpath 30 Hz per-client encode loop
func (c *Client) videoTick(now time.Duration) {
	if !c.running {
		return
	}
	// Random encoder pipeline stalls (Teams-Chrome quirk, §3.2).
	if now < c.stallUntil {
		return
	}
	if c.prof.StallEvery > 0 {
		tickP := (time.Second / 30).Seconds() / c.prof.StallEvery.Seconds()
		if c.rng.Float64() < tickP {
			c.stallUntil = now + c.prof.StallDur
			return
		}
	}
	// Frames belong to their encoder until its next Tick; sendFrame copies
	// every field it needs into the packets before returning.
	target := c.videoTarget()
	switch c.prof.MediaMode {
	case ModeSimulcast:
		if c.lowAlloc > 0 {
			// Meet SFU asked for a reduced low copy (receiver starved).
			c.simul.Low.SetTarget(c.lowAlloc)
			c.simul.High.SetTarget(max(0, target-c.lowAlloc))
			if target-c.lowAlloc < c.prof.SimMinHighBps {
				c.simul.High.SetTarget(0)
			}
		} else {
			c.simul.SetTarget(target)
		}
		for _, f := range c.simul.Tick(now) {
			c.sendFrame(f)
		}
	case ModeSVC:
		c.svc.SetTarget(target)
		for _, f := range c.svc.Tick(now) {
			c.sendFrame(f)
		}
	default:
		c.single.SetTarget(target)
		if f := c.single.Tick(now); f != nil {
			c.sendFrame(f)
		}
	}
}

// sendFrame packetizes one encoded frame into RTP-sized packets.
//
//vca:hotpath packetization inner loop
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
		mp.Origin = c.Name
		mp.OriginID = c.id
		mp.StreamID = f.StreamID
		mp.RK = rk
		mp.Layer = f.Layer
		mp.SSRC = 1
		mp.Seq = c.seq
		mp.FrameSeq = f.FrameSeq
		mp.LayerEnd = last
		mp.FrameEnd = last && f.Layer == c.topLayer()
		mp.Keyframe = f.Keyframe
		if mp.LayerEnd {
			mp.Params = f.Params
			mp.HasParams = true
		}
		c.seq++
		c.send(mp, chunk+wireOverhead)
	}
}

// topLayer is the highest SVC layer index (frame-end marker placement).
func (c *Client) topLayer() int {
	if c.prof.MediaMode == ModeSVC {
		return len(c.prof.SVCSplit) - 1
	}
	return 0
}

//vca:hotpath 50 Hz per-client audio loop
func (c *Client) audioTick(time.Duration) {
	if !c.running {
		return
	}
	mp := c.pool.get()
	mp.Origin, mp.OriginID = c.Name, c.id
	mp.StreamID, mp.RK = "audio", rkAudio
	mp.SSRC, mp.Seq, mp.Audio = 2, c.seq, true
	c.seq++
	c.send(mp, 100+wireOverhead)
}

// padTick emits FEC/probe padding at the controller's requested rate
// (Zoom's probe bursts, GCC recovery probes).
//
//vca:hotpath padding/probe emission loop
func (c *Client) padTick(now time.Duration) {
	if !c.running || c.ccUp == nil {
		return
	}
	for n := c.pad.due(now, c.ccUp); n > 0; n-- {
		mp := c.pool.get()
		mp.Origin, mp.OriginID = c.Name, c.id
		mp.StreamID, mp.RK = "pad", rkPad
		mp.SSRC, mp.Seq, mp.Padding = 1, c.seq, true
		c.seq++
		c.send(mp, maxPayload+wireOverhead)
	}
}

// flowFor returns the cached accounting label for one of this client's
// streams, index-addressed by rate key.
func (c *Client) flowFor(rk uint8, stream string) string {
	if c.flows[rk] == "" {
		c.flows[rk] = c.prof.Name + "/" + c.Name + "/" + stream
	}
	return c.flows[rk]
}

//vca:hotpath per-packet uplink path
func (c *Client) send(mp *MediaPacket, wireBytes int) {
	now := c.eng.Now()
	mp.OriginSentAt = now
	c.UpMeter.AddBytes(now, wireBytes)
	post(c.host, c.server, PortMedia, wireBytes, c.flowFor(mp.RK, mp.StreamID), mp)
}

// onMedia handles a forwarded media packet from the SFU, dispatching to
// the receiver slot by the packet's stamped origin ID. The packet's
// payload is consumed here: it goes back to the call's media pool.
//
//vca:hotpath per-packet downlink receive path
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
		c.lat.add(now - mp.OriginSentAt)
	}
	sentAt := pkt.SentAt
	if mp.E2E {
		// Pass-through relay (Teams): the delay signal spans the whole
		// path, uplink queueing included (abs-send-time semantics).
		sentAt = mp.OriginSentAt
	}
	if c.rec != nil {
		if c.rec.twcc != nil && mp.TWSeq != 0 {
			c.rec.twcc.Record(mp.TWSeq, int64(now/time.Microsecond))
		}
		// Participant media goes through the jitter buffer; SFU-origin
		// probe padding (constant seq) bypasses it.
		if c.reg.live(mp.OriginID) && !c.reg.isServer(mp.OriginID) {
			c.recoveryOnMedia(now, mp, pkt.Size, sentAt)
			releaseMedia(mp)
			return
		}
	}
	if c.reg.live(mp.OriginID) {
		c.receiverByID(mp.OriginID).OnPacket(now, mp.Info(pkt.Size, sentAt))
	}
	releaseMedia(mp)
}

// recoveryOnMedia routes one participant-media arrival through the
// origin's jitter buffer, which decides what (and when) the media
// receiver sees.
//
//vca:hotpath per-packet downlink receive path, recovery on
func (c *Client) recoveryOnMedia(now time.Duration, mp *MediaPacket, wireBytes int, sentAt time.Duration) {
	b := c.rec.jbFor(mp.OriginID)
	ok := b.onPacket(now, mp, wireBytes, sentAt, c.lastRTT, c.receiverByID(mp.OriginID))
	if c.tracer != nil {
		if !ok {
			c.tracer.Recovery(obs.EvJBLate, now, c.Name, mp.Origin, int(mp.Seq))
		} else if mp.RTX {
			c.tracer.Recovery(obs.EvRTXDeliver, now, c.Name, mp.Origin, int(mp.Seq))
		}
	}
}

// recoveryTick runs each origin's NACK retry machine: emit due NACKs
// (bounded retries, RTT-derived backoff) and concede seqs past their
// playout deadline or retry budget. start arms it only when c.rec is set.
func (c *Client) recoveryTick(now time.Duration) {
	if !c.running {
		return
	}
	backoff := c.rec.cfg.NackMinBackoff
	if c.lastRTT > backoff {
		backoff = c.lastRTT
	}
	for _, id := range c.rec.live {
		b := c.rec.jbs[id]
		if b.q.Len() == 0 {
			continue
		}
		r := c.receiverByID(id)
		origin := c.reg.name(id)
		seqs := b.nackScratch[:0]
		b.tick(now, backoff, r,
			func(seq uint16) {
				seqs = append(seqs, seq)
				if c.tracer != nil {
					c.tracer.Recovery(obs.EvNackSent, now, c.Name, origin, int(seq))
				}
			},
			func(seq uint16) {
				if c.tracer != nil {
					c.tracer.Recovery(obs.EvNackGiveUp, now, c.Name, origin, int(seq))
				}
			},
			func(n int) {
				if c.tracer != nil {
					c.tracer.Recovery(obs.EvJBConcede, now, c.Name, origin, n)
				}
			})
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
	m.From, m.FromID, m.Origin = c.Name, c.id, origin
	m.Pairs = rtp.AppendNackPairs(m.Pairs, seqs)
	post(c.host, c.server, PortFeedback, nackWireBase+4*len(m.Pairs), c.flowRtcp, m)
}

// twccTick flushes the transport-wide arrival record into one report.
// start arms it only when c.rec.twcc is set.
//
//vca:hotpath transport-wide feedback tick
func (c *Client) twccTick(now time.Duration) {
	if !c.running {
		return
	}
	m := c.pool.getTWCC()
	rep, ok := c.rec.twcc.AppendReport(m.Report.DeltaUs)
	if !ok {
		m.ReleasePayload()
		return
	}
	m.From, m.FromID, m.Report = c.Name, c.id, rep
	post(c.host, c.server, PortFeedback, twccWireBase+4*len(rep.DeltaUs), c.flowRtcp, m)
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
	feedCC(c.ccUp, in, c.tracer, c.Name, "")
}

// onSignal handles FIR and allocation messages arriving from the server.
func (c *Client) onSignal(pkt *netem.Packet) {
	if !c.running {
		return
	}
	switch m := pkt.Payload.(type) {
	case *FIRMsg:
		c.FIRsForMyVideo++
		switch c.prof.MediaMode {
		case ModeSimulcast:
			c.simul.Low.RequestKeyframe()
			c.simul.High.RequestKeyframe()
		case ModeSVC:
			c.svc.RequestKeyframe()
		default:
			c.single.RequestKeyframe()
		}
	case *AllocMsg:
		c.lowAlloc = m.LowBps
	}
}

// feedbackTick aggregates all receive legs into one report to the server.
//
//vca:hotpath receiver report tick
func (c *Client) feedbackTick(now time.Duration) {
	if !c.running {
		return
	}
	var agg media.IntervalStats
	var expectedSum int
	var lossWeighted float64
	for _, id := range c.recvOrder {
		r := c.recv[id]
		st := r.Take(now)
		if c.rec != nil {
			// Discount recovered retransmissions: CC must still see the
			// original losses (RTX rides a separate budget in real VCAs),
			// or recovery would mask congestion from the controllers.
			if b := c.rec.peek(id); b != nil {
				rtxPkts, rtxBytes := b.takeInterval()
				if rtxPkts > 0 && st.Expected > 0 {
					if st.Interval > 0 {
						st.RateBps -= float64(rtxBytes) * 8 / st.Interval.Seconds()
					}
					lost := st.LossFraction*float64(st.Expected) + float64(rtxPkts)
					st.LossFraction = min(1, lost/float64(st.Expected))
				}
			}
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
		agg.Interval = 100 * time.Millisecond
	}
	post(c.host, c.server, PortFeedback, feedbackWire, c.flowRtcp, c.pool.getFeedback(c.Name, c.id, agg))
}

// statsTick samples the WebRTC-stats emulation (1 Hz, §3.2).
func (c *Client) statsTick(now time.Duration) {
	if !c.running {
		return
	}
	s := webrtcstats.Sample{T: now - c.startedAt}
	// Outbound: the main video stream's current parameters.
	switch c.prof.MediaMode {
	case ModeSimulcast:
		if c.simul.High.Target() > 0 {
			s.Out = c.simul.High.Params()
		} else {
			s.Out = c.simul.Low.Params()
		}
	case ModeSVC:
		s.Out = c.svc.Params()
	default:
		s.Out = c.single.Params()
	}
	s.OutTargetBps = c.videoTarget()
	s.FIRCount = c.FIRsForMyVideo
	// Inbound: aggregate over origins (2-party calls have exactly one).
	// Pick the params of the busiest video stream deterministically —
	// padding-only receivers (server probes) carry no params.
	var frames, bestFrames int
	var freeze time.Duration
	for _, id := range c.recvOrder {
		r := c.recv[id]
		if r.DisplayedFrames() >= bestFrames && r.LastParams.Width > 0 {
			bestFrames = r.DisplayedFrames()
			s.In = r.LastParams
		}
		frames += r.DisplayedFrames()
		freeze += r.FreezeTime()
	}
	s.InFramesTotal = frames
	s.FreezeTime = freeze
	c.Recorder.Add(s)
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
