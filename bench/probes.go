package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"vcalab"
	"vcalab/internal/cc"
	"vcalab/internal/codec"
	"vcalab/internal/media"
	"vcalab/internal/netem"
	"vcalab/internal/rtp"
	"vcalab/internal/runner"
	"vcalab/internal/sim"
	"vcalab/internal/stats"
)

// The probes time one layer's exported calls on fixed synthetic input,
// independent of the workload. A probe times its layer alone, so probe x
// count predicts the layer's self_cpu_s in a workload; a gain claimed
// for a layer must show in both.

// probeResult is the cost of one probe per operation.
type probeResult struct {
	nsPerOp, allocsPerOp, bytesPerOp float64
}

// probe runs fn once and divides its cost by the operations it reports.
func probe(fn func() (ops int)) probeResult {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	ops := float64(fn())
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)
	return probeResult{
		nsPerOp:     float64(wall.Nanoseconds()) / ops,
		allocsPerOp: float64(after.Mallocs-before.Mallocs) / ops,
		bytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / ops,
	}
}

// chain is a self-rescheduling handler: each firing schedules the next
// at a pseudo-random delay, the shape of the model's packet and timer
// events.
type chain struct {
	eng  *sim.Engine
	rng  *rand.Rand
	left int
}

func (c *chain) OnEvent(time.Duration) {
	if c.left--; c.left > 0 {
		c.eng.ScheduleHandler(time.Duration(1+c.rng.Intn(20000))*time.Microsecond, c)
	}
}

// probeSim drives 64 handler chains and 16 tickers through the
// scheduler; the handlers do nothing, so the cost is the engine's.
func probeSim() probeResult {
	return probe(func() int {
		eng := sim.New(1)
		for i := 0; i < 64; i++ {
			c := &chain{eng: eng, rng: rand.New(rand.NewSource(int64(i))), left: 20000}
			eng.ScheduleHandler(time.Duration(i)*time.Microsecond, c)
		}
		for i := 0; i < 16; i++ {
			eng.EveryHandler(time.Duration(10+i)*time.Millisecond, sim.HandlerFunc(func(time.Duration) {}))
		}
		eng.RunUntil(200 * time.Second)
		return int(eng.Processed())
	})
}

// probeNetem sends 1200-byte packets host -> shaped link -> router ->
// link -> host at 96% of the shaped rate.
func probeNetem() probeResult {
	return probe(func() int {
		eng := sim.New(1)
		a, b := netem.NewHost(eng, "a"), netem.NewHost(eng, "b")
		rt := netem.NewRouter("rt")
		a.SetUplink(netem.NewLink(eng, "a-rt", netem.LinkConfig{RateBps: 10e6, Delay: 5 * time.Millisecond}, rt))
		down := netem.NewLink(eng, "rt-b", netem.LinkConfig{Delay: 5 * time.Millisecond}, b)
		rt.Route("b", down)
		b.HandleFunc(9, func(*netem.Packet) {})
		eng.EveryHandler(time.Millisecond, sim.HandlerFunc(func(time.Duration) {
			pkt := a.NewPacket()
			pkt.Size, pkt.Flow = 1200, "probe"
			pkt.From, pkt.To = netem.Addr{Host: "a", Port: 9}, netem.Addr{Host: "b", Port: 9}
			a.Send(pkt)
		}))
		eng.RunUntil(300 * time.Second)
		return int(down.Delivered)
	})
}

// probeCodec ticks one encoder of each strategy at 30 Hz with the
// profiles' own ladders.
func probeCodec() probeResult {
	return probe(func() int {
		rng := rand.New(rand.NewSource(1))
		src := codec.NewSource(rng)
		meet, teams, zoom := vcalab.Meet(), vcalab.Teams(), vcalab.Zoom()
		single := codec.NewEncoder("video", teams.Ladder, src, rng)
		simul := codec.NewSimulcast(meet.LowLadder, meet.Ladder, meet.SimLowCapBps, meet.SimMinHighBps, src, rng)
		svc := codec.NewSVC(zoom.Ladder, zoom.SVCSplit, src, rng)
		single.SetTarget(1e6)
		simul.SetTarget(1e6)
		svc.SetTarget(1e6)
		const ticks = 100000
		frames := 0
		for i := 0; i < ticks; i++ {
			now := time.Duration(i) * time.Second / 30
			if single.Tick(now) != nil {
				frames++
			}
			frames += len(simul.Tick(now)) + len(svc.Tick(now))
		}
		if frames == 0 {
			panic("codec probe encoded no frames")
		}
		return 3 * ticks
	})
}

// probeCC feeds the three client controllers a feedback sequence that
// cycles through clean, delayed and lossy intervals.
func probeCC() probeResult {
	return probe(func() int {
		ctrls := []cc.Controller{
			vcalab.Meet().NewClientCC(1e6), vcalab.Teams().NewClientCC(1e6), vcalab.Zoom().NewClientCC(1e6),
		}
		const n = 300000
		sink := 0.0
		for i := 0; i < n; i++ {
			fb := cc.Feedback{
				Now: time.Duration(i) * 100 * time.Millisecond, Interval: 100 * time.Millisecond,
				RTT: 40 * time.Millisecond, ReceiveRateBps: 9e5,
			}
			switch i % 50 {
			case 48:
				fb.QueueDelay = 60 * time.Millisecond
			case 49:
				fb.LossFraction = 0.08
			}
			for _, c := range ctrls {
				c.OnFeedback(fb)
				sink += c.TargetBps()
			}
		}
		if sink <= 0 {
			panic("cc probe produced no target")
		}
		return 3 * n
	})
}

// probeMedia feeds one receiver 8-packet frames at 30 fps, losing one
// packet in 500.
func probeMedia() probeResult {
	return probe(func() int {
		r := media.NewReceiver()
		const frames, perFrame = 100000, 8
		seq := uint16(0)
		for f := 0; f < frames; f++ {
			sent := time.Duration(f) * time.Second / 30
			for k := 0; k < perFrame; k++ {
				seq++
				if (f*perFrame+k)%500 == 499 {
					continue
				}
				r.OnPacket(sent+20*time.Millisecond, media.PacketInfo{
					Seq: seq, FrameSeq: f, FrameEnd: k == perFrame-1, Keyframe: f%300 == 0,
					Bytes: 1100, SentAt: sent,
				})
			}
		}
		if r.DisplayedFrames() == 0 {
			panic("media probe displayed no frames")
		}
		return frames * perFrame
	})
}

// probeRTP runs the three recovery primitives over one packet stream
// with one loss in 100: RTX ring put and get, NACK queue, TWCC recorder.
func probeRTP() probeResult {
	return probe(func() int {
		rtx := rtp.NewRTXBuffer(512)
		nq := rtp.NewNackQueue(3)
		tw := rtp.NewTWCCRecorder(1024)
		const n = 1000000
		answered := 0
		nack := func(seq uint16) {
			if _, _, _, ok := rtx.Get(seq); ok {
				answered++
			}
		}
		concede := func(uint16, bool) {}
		for i := 0; i < n; i++ {
			seq := uint16(i)
			now := time.Duration(i) * time.Millisecond
			rtx.Put(seq, nil, 1200, now.Microseconds())
			if i%100 != 99 {
				nq.Observe(seq, now, now+200*time.Millisecond)
				tw.Record(seq, now.Microseconds())
			}
			if i%10 == 0 {
				nq.Tick(now, 30*time.Millisecond, nack, concede)
			}
			if i%50 == 0 {
				tw.BuildReport()
			}
		}
		if answered == 0 {
			panic("rtp probe answered no NACK")
		}
		return n
	})
}

// probeVCA runs a 16-party Meet call through one SFU on unconstrained
// links: SFU fan-out and client machinery with no queueing.
func probeVCA() probeResult {
	return probe(func() int {
		eng := vcalab.NewEngine(1)
		lab := vcalab.NewLab(eng, 0, 0)
		hosts := []*vcalab.Host{lab.ClientHost("c1")}
		for i := 2; i <= 16; i++ {
			hosts = append(hosts, lab.RemoteHost(fmt.Sprintf("c%d", i), vcalab.RemoteDelay))
		}
		call := vcalab.NewCall(eng, vcalab.Meet(), lab.RemoteHost("sfu", vcalab.SFUDelay), hosts, vcalab.CallOptions{Seed: 1})
		call.Start()
		eng.RunUntil(10 * time.Second)
		call.Stop()
		return int(eng.Processed())
	})
}

// probeStats meters a byte stream into 1 s bins and takes the latency
// percentiles the scale sweep takes, per sample.
func probeStats() probeResult {
	return probe(func() int {
		const n = 500000
		m := stats.NewMeter(time.Second)
		rng := rand.New(rand.NewSource(1))
		lats := make([]float64, n)
		for i := range lats {
			m.AddBytes(time.Duration(i)*time.Millisecond, 1200)
			lats[i] = rng.Float64() * 300
		}
		if stats.SortedPercentiles(lats, 50, 95, 99) == nil || m.RateMbps().Len() == 0 {
			panic("stats probe produced no summary")
		}
		return n
	})
}

// probeRunner maps empty trials over the worker pool: the sweep
// engine's own dispatch cost.
func probeRunner(workers int) probeResult {
	return probe(func() int {
		const n = 200000
		out := runner.Map(runner.New(workers), n, func(i int) int { return i })
		return len(out)
	})
}
