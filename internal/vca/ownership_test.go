package vca

import (
	"math"
	"testing"
	"time"

	"vcalab/internal/media"
	"vcalab/internal/netem"
	"vcalab/internal/rtp"
	"vcalab/internal/sim"
	"vcalab/internal/stats"
)

// Ownership rule under test: a pooled control message has exactly one
// consumer, which releases it on every return path; a packet netem
// terminates without delivering releases its payload itself. ctrlLive
// counts messages out of the pool, so a leak leaves it positive and a
// double release drives it negative (and files the message twice).

// wantReleasedOnce fails unless every control message drawn from p is
// back in it exactly once.
func wantReleasedOnce(t *testing.T, what string, p *mpPool) {
	t.Helper()
	if p.ctrlLive != 0 {
		t.Errorf("%s: %d control messages live, want 0 (positive = leaked, negative = released twice)", what, p.ctrlLive)
	}
	seen := map[any]bool{}
	filed := func(m any) {
		if seen[m] {
			t.Fatalf("%s: one %T sits in the free list twice", what, m)
		}
		seen[m] = true
	}
	for _, m := range p.fb {
		filed(m)
	}
	for _, m := range p.nack {
		filed(m)
	}
	for _, m := range p.twcc {
		filed(m)
	}
}

// feedbackPkt wraps a pooled report from fromID in a literal envelope, as
// if netem were delivering it.
func feedbackPkt(p *mpPool, fromID int32) *netem.Packet {
	fb := p.getFeedback(fromID, media.IntervalStats{Interval: 100 * time.Millisecond, RateBps: 1e6})
	return &netem.Packet{Size: feedbackWire, Payload: fb}
}

func TestControlMsgReleasedByEveryConsumerPath(t *testing.T) {
	for _, recovery := range []bool{false, true} {
		for _, prof := range []*Profile{Meet(), Teams()} {
			eng := sim.New(5)
			l := newLab(eng, 0, 0)
			hosts := []*netem.Host{l.clientHost("c1")}
			for _, name := range []string{"c2", "c3"} {
				hosts = append(hosts, l.remoteHost(name, 5*time.Millisecond))
			}
			call := NewCall(eng, prof, l.remoteHost("sfu", 15*time.Millisecond), hosts,
				CallOptions{Seed: 5, Recovery: recovery})
			call.Start()
			eng.RunUntil(2 * time.Second)
			call.Stop()
			eng.Run() // drain in-flight reports so the pool starts balanced
			p, s, c2 := call.pools[0], call.Servers[0], call.Clients[1]
			wantReleasedOnce(t, prof.Name+" after drain", p)

			// Stopped consumers still own what they are handed.
			c2.onFeedback(feedbackPkt(p, s.id))
			wantReleasedOnce(t, prof.Name+" stopped client", p)
			s.onFeedback(feedbackPkt(p, c2.id))
			wantReleasedOnce(t, prof.Name+" stopped server", p)

			s.running, c2.running = true, true
			// A live server: the normal path (controller update; relay
			// fan-out for Teams; the recovery-on early return), then
			// reports it cannot attribute.
			s.onFeedback(feedbackPkt(p, c2.id))
			eng.Run() // relayed copies reach their (stopped) origins
			wantReleasedOnce(t, prof.Name+" live server", p)
			for _, id := range []int32{-1, int32(len(s.legs)), 1 << 20} {
				s.onFeedback(feedbackPkt(p, id))
				wantReleasedOnce(t, prof.Name+" out-of-range FromID", p)
			}
			s.onFeedback(feedbackPkt(p, s.id)) // in range, but no leg
			wantReleasedOnce(t, prof.Name+" FromID without a leg", p)
			c2.onFeedback(feedbackPkt(p, s.id))
			wantReleasedOnce(t, prof.Name+" live client", p)
			// The client's own report tick: an interval in which nothing
			// arrived draws a TWCC message and hands it straight back, one
			// with an arrival posts it to the SFU, which consumes it.
			if c2.twcc != nil {
				c2.twccTick(eng.Now())
				wantReleasedOnce(t, prof.Name+" empty twcc interval", p)
				c2.twcc.Record(1, int64(eng.Now()/time.Microsecond))
				c2.twccTick(eng.Now())
				eng.Run()
				wantReleasedOnce(t, prof.Name+" twcc report", p)
			}

			// A client that has left the call.
			call.started = true
			call.Leave("c2")
			c2.onFeedback(feedbackPkt(p, s.id))
			wantReleasedOnce(t, prof.Name+" left client", p)

			// NACK and TWCC reports share the port and the rule: from a live
			// receiver, from c2 whose track went with it, from strangers.
			for _, id := range []int32{call.Clients[2].id, c2.id, -1, 1 << 20} {
				n := p.getNack()
				n.FromID, n.Origin = id, call.Clients[0].id
				n.Pairs = rtp.AppendNackPairs(n.Pairs, []uint16{3, 4, 9})
				s.onFeedback(&netem.Packet{Payload: n})
				tw := p.getTWCC()
				tw.FromID = id
				tw.Report.DeltaUs = append(tw.Report.DeltaUs, 10, rtp.DeltaLost, 30)
				s.onFeedback(&netem.Packet{Payload: tw})
				eng.Run()
				wantReleasedOnce(t, prof.Name+" nack/twcc", p)
			}
			s.running = false
			s.onFeedback(&netem.Packet{Payload: p.getNack()})
			s.onFeedback(&netem.Packet{Payload: p.getTWCC()})
			wantReleasedOnce(t, prof.Name+" nack/twcc at a stopped server", p)
		}
	}
}

// TestControlMsgReleasedWhenNetemDrops sends pooled reports into the three
// places netem terminates a packet without delivering it.
func TestControlMsgReleasedWhenNetemDrops(t *testing.T) {
	eng := sim.New(6)
	p := &mpPool{}
	src, dst := netem.NewHost(eng, "src"), netem.NewHost(eng, "dst")
	rt := netem.NewRouter("rt")
	delivered := 0
	dst.HandleFunc(PortFeedback, func(pkt *netem.Packet) {
		delivered++
		pkt.Payload.(*FeedbackMsg).ReleasePayload()
	})
	send := func(to string, port int) {
		pkt := src.NewPacket()
		pkt.Size = feedbackWire
		pkt.To = netem.Addr{Host: to, Port: port}
		pkt.Payload = p.getFeedback(0, media.IntervalStats{})
		src.Send(pkt)
	}

	// A 2-packet queue on a slow link: most of a 50-packet burst overflows.
	up := netem.NewLink(eng, "src-rt", netem.LinkConfig{RateBps: 64_000, QueueBytes: 2 * feedbackWire}, rt)
	src.SetUplink(up)
	down := netem.NewLink(eng, "rt-dst", netem.LinkConfig{Delay: time.Millisecond}, dst)
	rt.Route("dst", down)
	for i := 0; i < 50; i++ {
		send("dst", PortFeedback)
	}
	eng.Run()
	if up.Drops == 0 || delivered == 0 {
		t.Fatalf("queue test wants both drops and deliveries, got %d/%d", up.Drops, delivered)
	}
	wantReleasedOnce(t, "full queue", p)

	// Random loss on the second hop.
	src.SetUplink(netem.NewLink(eng, "src-rt/fat", netem.LinkConfig{}, rt))
	down.SetImpairment(0.5, 0)
	before := down.Drops
	for i := 0; i < 200; i++ {
		send("dst", PortFeedback)
	}
	eng.Run()
	if down.Drops == before {
		t.Fatal("LossProb 0.5 dropped nothing")
	}
	wantReleasedOnce(t, "random loss", p)

	// No route at the router; no handler on the port at the host.
	down.SetImpairment(0, 0)
	send("nowhere", PortFeedback)
	send("dst", 9)
	eng.Run()
	if rt.Unrouteable != 1 || dst.Unrouteable != 1 {
		t.Fatalf("unrouteable: router %d, host %d, want 1 and 1", rt.Unrouteable, dst.Unrouteable)
	}
	wantReleasedOnce(t, "unrouteable host", p)
	if n := src.PoolLive(); n != 0 {
		t.Errorf("%d envelopes live after drain", n)
	}
}

// TestTeamsRelayFanOutCopiesPerPacket: the Teams SFU relays a receiver's
// report to every origin the receiver displays. Each relayed packet must
// carry its own message — the consumers release independently — and the
// original goes back to the pool at the SFU.
func TestTeamsRelayFanOutCopiesPerPacket(t *testing.T) {
	eng := sim.New(7)
	call := fiveParty(eng, Teams())
	s, p := call.Servers[0], call.pools[0]
	s.running = true
	c1 := call.Clients[0]
	var got []*FeedbackMsg
	for _, cl := range call.Clients[1:] {
		// Intercept at the origins: keep the message instead of
		// consuming it, so the copies can be compared side by side.
		cl.host.HandleFunc(PortFeedback, func(pkt *netem.Packet) {
			got = append(got, pkt.Payload.(*FeedbackMsg))
		})
	}
	want := media.IntervalStats{Interval: 100 * time.Millisecond, RateBps: 2e6, LossFraction: 0.25}
	orig := p.getFeedback(c1.id, want)
	s.onFeedback(&netem.Packet{Size: feedbackWire, Payload: orig})
	eng.Run()

	n := len(s.displayed[c1.id])
	if n < 2 || len(got) != n {
		t.Fatalf("relayed %d copies for %d displayed origins", len(got), n)
	}
	if p.ctrlLive != n {
		t.Errorf("%d messages live with %d copies in hand: the original was not released", p.ctrlLive, n)
	}
	for i, m := range got {
		if m == orig {
			t.Errorf("copy %d is the original message", i)
		}
		for j := 0; j < i; j++ {
			if got[j] == m {
				t.Errorf("copies %d and %d are one message", j, i)
			}
		}
		if m.FromID != c1.id || m.Stats != want {
			t.Errorf("copy %d = %+v, want the original's contents", i, *m)
		}
	}
	got[0].Stats.RateBps = 1
	got[0].ReleasePayload()
	for i, m := range got[1:] {
		if m.Stats != want {
			t.Errorf("mutating and releasing copy 0 changed copy %d: %+v", i+1, m.Stats)
		}
		m.ReleasePayload()
	}
	wantReleasedOnce(t, "relay fan-out", p)
}

// TestPayloadTransferRehomesControlMsgs: across a shard boundary a control
// message is copied into the destination region's pool (slices included)
// and the source released, exactly like a media packet.
func TestPayloadTransferRehomesControlMsgs(t *testing.T) {
	eng := sim.New(8)
	call, _ := miniCascade(eng, Zoom(), 8)
	src, dst := call.pools[0], call.pools[1]
	xfer := call.PayloadTransfer(1)

	fb := src.getFeedback(3, media.IntervalStats{RateBps: 7e5})
	nack := src.getNack()
	nack.Origin = 2
	nack.Pairs = append(nack.Pairs, rtp.NackPair{PacketID: 11, Bitmask: 5})
	tw := src.getTWCC()
	tw.Report.BaseSeq = 40
	tw.Report.DeltaUs = append(tw.Report.DeltaUs, 1, 2, rtp.DeltaLost)

	fb2 := xfer(fb).(*FeedbackMsg)
	nack2 := xfer(nack).(*NackMsg)
	tw2 := xfer(tw).(*TWCCMsg)
	wantReleasedOnce(t, "source pool after transfer", src)
	if dst.ctrlLive != 3 {
		t.Fatalf("destination pool holds %d live messages, want 3", dst.ctrlLive)
	}
	if fb2 == fb || fb2.pool != dst || fb2.FromID != 3 || fb2.Stats.RateBps != 7e5 {
		t.Errorf("feedback copy = %+v", *fb2)
	}
	if nack2.pool != dst || nack2.Origin != 2 || len(nack2.Pairs) != 1 || nack2.Pairs[0] != (rtp.NackPair{PacketID: 11, Bitmask: 5}) {
		t.Errorf("nack copy = %+v", *nack2)
	}
	if tw2.pool != dst || tw2.Report.BaseSeq != 40 || len(tw2.Report.DeltaUs) != 3 || tw2.Report.DeltaUs[2] != rtp.DeltaLost {
		t.Errorf("twcc copy = %+v", *tw2)
	}
	// The source messages are back in their pool and will be reused; the
	// copies must not share their backing arrays.
	reused := src.getNack()
	reused.Pairs = append(reused.Pairs, rtp.NackPair{PacketID: 99})
	reusedTW := src.getTWCC()
	reusedTW.Report.DeltaUs = append(reusedTW.Report.DeltaUs, 77)
	if nack2.Pairs[0].PacketID != 11 || tw2.Report.DeltaUs[0] != 1 {
		t.Error("transferred copy aliases the source message's backing array")
	}
	reused.ReleasePayload()
	reusedTW.ReleasePayload()
	fb2.ReleasePayload()
	nack2.ReleasePayload()
	tw2.ReleasePayload()
	wantReleasedOnce(t, "destination pool", dst)

	// FIR/alloc signalling is not pooled and passes through by pointer.
	fir := &FIRMsg{Origin: "c2"}
	if xfer(fir) != any(fir) {
		t.Error("FIRMsg should cross the boundary by pointer")
	}
}

// latencyCounts reads a call's region logs back as one multiset: how many
// samples of each latency were recorded, all regions together.
func latencyCounts(c *Call) map[time.Duration]int {
	out := map[time.Duration]int{}
	for _, l := range c.lats {
		l.Each(func(d time.Duration, n int) { out[d] += n })
	}
	return out
}

// total is the number of samples in a multiset.
func total(counts map[time.Duration]int) int {
	n := 0
	for _, c := range counts {
		n += c
	}
	return n
}

// TestFrameLatencySubscription: a call records frame latency only once
// subscribed, and then only frames arriving at or after the subscription's
// start — each sample stored once, in the region's log — and the
// percentiles it reports are those of the samples converted to ms, sorted
// and interpolated.
func TestFrameLatencySubscription(t *testing.T) {
	run := func(subscribe bool, from time.Duration) *Call {
		eng := sim.New(9)
		call := fiveParty(eng, Zoom())
		if subscribe {
			call.SampleFrameLatency(from)
		}
		call.Start()
		eng.RunUntil(6 * time.Second)
		call.Stop()
		return call
	}
	if call := run(false, 0); call.FrameLatencyPercentilesMs(50) != nil || call.Clients[0].lat != nil {
		t.Error("an unsubscribed call recorded frame latencies")
	}
	if call := run(true, time.Hour); call.FrameLatencyPercentilesMs(50) != nil {
		t.Error("a subscription no frame reached reported percentiles")
	}
	full := run(true, 0)
	all := latencyCounts(full)
	late := latencyCounts(run(true, 3*time.Second))
	if n, nAll := total(late), total(all); n == 0 || n >= nAll {
		t.Fatalf("samples from 3 s: %d, from 0: %d; want 0 < late < all", n, nAll)
	}
	// Same seed, same call: what the late log holds, the full one holds too.
	for d, n := range late {
		if d <= 0 {
			t.Fatalf("%d samples of %v, want a positive latency", n, d)
		}
		if n > all[d] {
			t.Fatalf("%d samples of %v from 3 s, %d from 0", n, d, all[d])
		}
	}
	var ms []float64
	for d, n := range all {
		for range n {
			ms = append(ms, d.Seconds()*1000)
		}
	}
	ps := []float64{0, 50, 95, 99, 100}
	want := stats.SortedPercentiles(ms, ps...)
	for i, got := range full.FrameLatencyPercentilesMs(ps...) {
		if got != want[i] {
			t.Errorf("p%v = %v ms, want %v", ps[i], got, want[i])
		}
	}
}

// TestLatencyLogMergesRuns: a log keeps one entry per distinct latency
// however often it recurs, and a sample that does not fit 32 bits of ns
// is kept whole beside the table, unclamped.
func TestLatencyLogMergesRuns(t *testing.T) {
	var l latencyLog
	const distinct, reps = 300, 7
	for r := 0; r < reps; r++ {
		for i := distinct; i > 0; i-- {
			l.Add(time.Duration(i) * time.Microsecond)
		}
	}
	runs := 0
	l.Each(func(d time.Duration, n int) {
		if runs++; d != time.Duration(runs)*time.Microsecond || n != reps {
			t.Fatalf("run %d = %d × %v, want %d × %v", runs, n, d, reps, time.Duration(runs)*time.Microsecond)
		}
	})
	if runs != distinct {
		t.Fatalf("%d runs for %d distinct latencies", runs, distinct)
	}
	l.Add(math.MaxUint32) // the largest that fits
	l.Add(-time.Millisecond)
	l.Add(5 * time.Second)
	call := &Call{lats: []*latencyLog{&l}}
	if got := latencyCounts(call); len(got) != distinct+3 {
		t.Fatalf("%d entries after three edge samples, want %d", len(got), distinct+3)
	}
	if pc := call.FrameLatencyPercentilesMs(0, 100); pc[0] != -1 || pc[1] != 5000 {
		t.Errorf("p0, p100 = %v ms, want -1 and 5000 (unclamped)", pc)
	}
}

// TestFrameLatencyReadIsRepeatable: a read leaves the region logs as they
// were — a second read is bit-identical — and open to more samples, which
// the next read counts.
func TestFrameLatencyReadIsRepeatable(t *testing.T) {
	logs := []*latencyLog{{}, {}}
	for i := 0; i < 3000; i++ {
		logs[i%2].Add(time.Duration(i%700) * 37 * time.Microsecond)
	}
	call := &Call{lats: logs}
	ps := []float64{0, 50, 95, 99, 100}
	first := call.FrameLatencyPercentilesMs(ps...)
	second := call.FrameLatencyPercentilesMs(ps...)
	for i := range ps {
		if math.Float64bits(first[i]) != math.Float64bits(second[i]) {
			t.Errorf("p%v read %v, then %v", ps[i], first[i], second[i])
		}
	}
	logs[1].Add(time.Second)
	if got := call.FrameLatencyPercentilesMs(100); got[0] != 1000 {
		t.Errorf("p100 after one more 1 s sample = %v ms, want 1000", got[0])
	}
	if n := total(latencyCounts(call)); n != 3001 {
		t.Errorf("%d samples after the reads, want 3001", n)
	}
}

// TestFrameLatencySampleIsPerArrival pins what a sample is: one per
// arrival of a video frame-end packet at or after the subscription's
// start, taken before the jitter buffer rules on it — so a duplicated (or
// retransmitted) frame-end counts twice, and an arrival before from, a
// padding, an audio or a mid-frame packet not at all.
func TestFrameLatencySampleIsPerArrival(t *testing.T) {
	eng := sim.New(1)
	call := fivePartyOpt(eng, Zoom(), CallOptions{Seed: 21, Recovery: true})
	call.SampleFrameLatency(time.Second)
	cl, pool := call.Clients[0], call.pools[0]
	cl.running = true // ingest without starting the tickers
	arrive := func(edit func(*MediaPacket)) {
		mp := pool.get()
		mp.OriginID = call.Clients[1].id
		mp.RK, mp.FrameEnd = rkVideo, true
		mp.OriginSentAt = eng.Now() - 30*time.Millisecond
		edit(mp)
		cl.onMedia(&netem.Packet{Size: 1200, Payload: mp})
	}
	frameEnd := func(*MediaPacket) {}
	arrive(frameEnd) // now = 0 < from
	if n := total(latencyCounts(call)); n != 0 {
		t.Fatalf("%d samples before the subscription's start, want none", n)
	}
	eng.RunUntil(2 * time.Second)
	arrive(frameEnd)
	arrive(frameEnd) // same seq again: the jitter buffer drops it, the log has counted it
	arrive(func(mp *MediaPacket) { mp.RTX = true })
	arrive(func(mp *MediaPacket) { mp.Padding = true })
	arrive(func(mp *MediaPacket) { mp.Audio = true })
	arrive(func(mp *MediaPacket) { mp.FrameEnd = false })
	got := latencyCounts(call)
	if n := total(got); n != 3 {
		t.Fatalf("%d samples for an original, a duplicate and a retransmitted frame-end; want 3", n)
	}
	if got[30*time.Millisecond] != 3 {
		t.Errorf("samples = %v, want 3 of 30ms (arrival minus origin stamp)", got)
	}
}
