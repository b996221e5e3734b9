package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"vcalab"
	"vcalab/internal/cascade"
)

// replaySpec describes the one trial a traced run drives itself, in
// 1-sim-second RunUntil slices, to read the layers' exact counters.
// The Run* entry points build and discard their engines internally, so
// this is the only way to see them from outside.
type replaySpec struct {
	profile func() *vcalab.Profile
	dur     time.Duration

	// lab selects the paper's 2-party NewLab testbed shaped to
	// upBps/downBps; otherwise a cascade mesh is built.
	lab            bool
	upBps, downBps float64

	participants, regions int
	interMbps             float64
	scenario              string // canned scenario bound to the call, "" for none
	recovery              bool
	// lossPct is random loss put on every link of the mesh, as
	// RunEngineBench's recovery section does.
	lossPct float64
}

// replayCounts is what one replay trial observed. Everything down to
// rtx repeats bit-for-bit for a given seed; the wall and GC figures are
// host measurements.
type replayCounts struct {
	events        uint64
	eventHW       int
	wheelRatio    float64
	delivered     uint64
	dropped       uint64
	queueHWBytes  int
	fwdSwitches   uint64
	nacked, rtx   uint64
	runWallS      float64
	sliceP95Ms    float64
	mallocs       uint64
	gcCycles      uint32
	gcPauseMs     float64
	heapPeakMB    float64
	leaks         []string // resources still held after the drain
	freezeInRange bool
}

func runReplay(spec replaySpec, seed int64, tr *tracer) replayCounts {
	endReplay := tr.span("replay")
	defer endReplay()

	end := tr.span("build")
	eng := vcalab.NewEngine(seed)
	var (
		call  *vcalab.Call
		links []*vcalab.Link
		hosts []*vcalab.Host
		tl    *vcalab.ScenarioTimeline
	)
	opt := vcalab.CallOptions{Seed: seed, Recovery: spec.recovery}
	if spec.lab {
		lab := vcalab.NewLab(eng, spec.upBps, spec.downBps)
		c1 := lab.ClientHost("c1")
		c2 := lab.RemoteHost("c2", vcalab.RemoteDelay)
		sfu := lab.RemoteHost("sfu", vcalab.SFUDelay)
		call = vcalab.NewCall(eng, spec.profile(), sfu, []*vcalab.Host{c1, c2}, opt)
		hosts = []*vcalab.Host{c1, c2, sfu}
		// The router-to-host links are private to the lab; these five
		// carry every packet at least once.
		links = []*vcalab.Link{lab.Uplink(), lab.Downlink(), c1.Uplink(), c2.Uplink(), sfu.Uplink()}
	} else {
		topo := vcalab.CascadeTopology{
			Default: vcalab.LinkConfig{RateBps: spec.interMbps * 1e6, Delay: cascade.DefaultInterDelay},
		}
		for r, clients := range vcalab.CascadeAssign(spec.participants, spec.regions) {
			topo.Regions = append(topo.Regions, vcalab.CascadeRegion{Name: fmt.Sprintf("r%d", r), Clients: clients})
		}
		mesh := vcalab.BuildCascade(eng, topo)
		call = mesh.NewCall(spec.profile(), opt)
		links = mesh.Links()
		for _, l := range links {
			l.SetImpairment(spec.lossPct/100, 0)
		}
		hosts = append(hosts, mesh.SFUs...)
		for _, region := range mesh.Clients {
			hosts = append(hosts, region...)
		}
		if spec.scenario != "" {
			sc, err := vcalab.CannedScenario(spec.scenario, spec.participants, spec.interMbps*1e6)
			if err != nil {
				panic(fmt.Sprintf("canned scenario %q: %v", spec.scenario, err)) // name comes from CannedScenarioNames
			}
			tl = vcalab.NewScenarioTimeline(eng, call, vcalab.MeshLinks(mesh), sc)
		}
	}
	end()

	end = tr.span("start")
	if tl != nil {
		tl.Start()
	}
	call.Start()
	end()

	end = tr.span("run")
	var before, ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	peak := before.HeapAlloc
	slices := make([]float64, 0, int(spec.dur/time.Second))
	var c replayCounts
	for t := time.Second; t <= spec.dur; t += time.Second {
		t0 := time.Now()
		eng.RunUntil(t)
		d := time.Since(t0).Seconds()
		c.runWallS += d
		slices = append(slices, d*1e3)
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > peak {
			peak = ms.HeapAlloc
		}
	}
	end()

	end = tr.span("stop")
	call.Stop()
	end()

	end = tr.span("collect")
	sort.Float64s(slices)
	c.sliceP95Ms = quantile(slices, 0.95)
	c.mallocs = ms.Mallocs - before.Mallocs
	c.gcCycles = ms.NumGC - before.NumGC
	c.gcPauseMs = float64(ms.PauseTotalNs-before.PauseTotalNs) / 1e6
	c.heapPeakMB = float64(peak) / 1e6
	c.events = eng.Processed()
	c.eventHW = eng.LiveHighWater()
	if wheel, heap := eng.SchedulerInserts(); wheel+heap > 0 {
		c.wheelRatio = float64(wheel) / float64(wheel+heap)
	}
	for _, l := range links {
		c.delivered += l.Delivered
		c.dropped += l.Drops
		if hw := l.QueueHighWater(); hw > c.queueHWBytes {
			c.queueHWBytes = hw
		}
	}
	for _, s := range call.Servers {
		c.fwdSwitches += s.FwdSwitches()
	}
	c.nacked, c.rtx = call.NackRTXTotals()
	c.freezeInRange = true
	for _, cl := range call.Clients {
		for _, origin := range cl.Origins() {
			if fr := cl.Receiver(origin).FreezeRatio(); !(fr >= 0 && fr <= 1) {
				c.freezeInRange = false
			}
		}
	}

	// The drain sequence of internal/scenario/harness.go: with the call
	// stopped, every in-flight packet and cancelled timer comes home.
	eng.Run()
	call.DrainRecovery()
	if n := eng.Live(); n != 0 {
		c.leaks = append(c.leaks, fmt.Sprintf("%d pooled engine events live", n))
	}
	if n := eng.Pending(); n != 0 {
		c.leaks = append(c.leaks, fmt.Sprintf("%d engine events pending", n))
	}
	for _, h := range hosts {
		if n := h.PoolLive(); n != 0 {
			c.leaks = append(c.leaks, fmt.Sprintf("host %s holds %d pooled packets", h.Name, n))
		}
	}
	if n := call.RTXClonesLive(); n != 0 {
		c.leaks = append(c.leaks, fmt.Sprintf("%d RTX clones live", n))
	}
	end()
	return c
}
