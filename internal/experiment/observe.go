package experiment

// Observability wiring for every experiment: per-trial tracer and metrics
// capture, assembled here so the sim layers stay ignorant of experiment
// structure. Each trial owns its tracer(s) and metrics log — nothing is
// shared across trials — and the sweep flushes them in trial order once
// its pool drains, so the files are byte-identical at any -parallel.
//
// The sampler tick is an extra scheduled event, which shifts engine
// sequence numbers relative to an unobserved run — harmless, because
// every callback it fires is a pure read (gauges poll accessors, the
// getStats path never calls Receiver.Take, nothing draws from the
// engine RNG), so the relative order and content of all other events,
// and therefore the experiment's stdout, are unchanged.

import (
	"fmt"
	"io"
	"time"

	"vcalab/internal/netem"
	"vcalab/internal/obs"
	"vcalab/internal/sim"
	"vcalab/internal/vca"
)

// ObsConfig says what a capture records per trial (see SetCapture). The
// zero value (and a nil pointer) disables everything.
type ObsConfig struct {
	// Trace attaches a ring-buffer tracer to every engine of the trial;
	// everything that runs on an engine records into its ring.
	Trace bool
	// Metrics samples the metrics registry and per-client getStats
	// snapshots every Interval.
	Metrics bool
	// Interval is the metrics sampling period (default 1s).
	Interval time.Duration
	// TraceCap overrides the tracer ring capacity (default
	// obs.DefaultTraceCap).
	TraceCap int
}

// capture is what a sweep records per trial and where it writes it.
type capture struct {
	ObsConfig
	traceW, metricsW io.Writer
}

// newCapture returns nil unless o asks for something, so "off" is one nil
// test downstream and an unobserved trial builds no tracer, registry or
// sampler tick.
func newCapture(o *ObsConfig, traceW, metricsW io.Writer) *capture {
	if o == nil || (!o.Trace && !o.Metrics) {
		return nil
	}
	return &capture{*o, traceW, metricsW}
}

// trialObs is one trial's captured observability state under a capture.
type trialObs struct {
	*capture
	seed    int64
	rings   []*obs.Tracer // one per engine of the trial, control first
	log     *obs.MetricsLog
	sampler *sim.Ticker // the metrics tick, stopped with the call
}

// attach instruments a built trial just before it starts, so a timeline's
// t<=0 events are captured. Nil-safe.
//
// Each engine of the trial gets its own ring, and whatever runs on the
// engine records there: its links, clients and SFUs, and on the control
// engine the call's churn and the timeline — a host or call a runner
// adds mid-run (the §5 competitor) included, with no wiring. The metrics
// sampler is a control-engine global: on a sharded trial it fires at
// window barriers with every shard parked at the sample instant, so
// link, call and getStats lines read exactly the state the sequential
// run would have sampled. Gauges cover what exists now: hosts and calls
// a runner wires in mid-run (the §5 competitor) appear in the trace, not
// as new gauges.
func (o *trialObs) attach(t *trial) {
	if o == nil {
		return
	}
	o.seed = t.seed
	if o.Trace {
		o.rings = make([]*obs.Tracer, len(t.engines))
		for i, e := range t.engines {
			o.rings[i] = obs.NewTracer(o.TraceCap)
			e.SetTracer(o.rings[i])
		}
	}
	if !o.Metrics {
		return
	}
	interval := o.Interval
	if interval <= 0 {
		interval = time.Second
	}
	call := t.call
	o.log = &obs.MetricsLog{}
	reg := obs.NewRegistry()
	registerEngineMetrics(reg, t.engines)
	registerLinkMetrics(reg, t.links())
	registerCallMetrics(reg, call)
	rtt := reg.Histogram("vca/feedback_rtt_ms")
	o.sampler = t.eng.EveryHandler(interval, sim.HandlerFunc(func(now time.Duration) {
		for _, cl := range call.Clients {
			if call.Active(cl.Name) && cl.LastRTT() > 0 {
				rtt.Observe(cl.LastRTT().Seconds() * 1000)
			}
		}
		reg.Sample(now, o.log)
		for _, cl := range call.Clients {
			if !call.Active(cl.Name) {
				continue
			}
			rep := cl.StatsReport(now)
			for _, e := range rep.Entries() {
				o.log.Append(e)
			}
		}
	}))
}

// registerEngineMetrics aggregates the scheduler gauges over every
// engine of the trial: one entry sequentially, control plus shards on a
// sharded run. Sums of processed/live match the sequential run at every
// sample instant (the same event set precedes each barrier); high-water
// and lane-ratio are per-engine properties whose aggregate is
// deterministic but shard-count-dependent.
func registerEngineMetrics(reg *obs.Registry, engines []*sim.Engine) {
	sum := func(of func(*sim.Engine) float64) func() float64 {
		return func() (n float64) {
			for _, e := range engines {
				n += of(e)
			}
			return n
		}
	}
	reg.Gauge("eng/processed", sum(func(e *sim.Engine) float64 { return float64(e.Processed()) }))
	reg.Gauge("eng/live", sum(func(e *sim.Engine) float64 { return float64(e.Live()) }))
	reg.Gauge("eng/live_high_water", sum(func(e *sim.Engine) float64 { return float64(e.LiveHighWater()) }))
	reg.Gauge("eng/lane_insert_ratio", func() float64 {
		var l, h uint64
		for _, e := range engines {
			el, eh := e.SchedulerInserts()
			l += el
			h += eh
		}
		if l+h == 0 {
			return 0
		}
		return float64(l) / float64(l+h)
	})
}

func registerLinkMetrics(reg *obs.Registry, links []*netem.Link) {
	for _, l := range links {
		prefix := "link/" + l.Name() + "/"
		reg.Gauge(prefix+"queue_bytes", func() float64 { return float64(l.QueuedBytes()) })
		reg.Gauge(prefix+"queue_high_water_bytes", func() float64 { return float64(l.QueueHighWater()) })
		reg.Gauge(prefix+"drops", func() float64 { return float64(l.Drops) })
		reg.Gauge(prefix+"aqm_drops", func() float64 { return float64(l.AQMDrops) })
		reg.Gauge(prefix+"paused_ms", func() float64 {
			return float64(l.PausedTotal()) / float64(time.Millisecond)
		})
		// Loss models install mid-run (timeline shape events), so the
		// GE burst-state occupancy re-checks the model on every sample.
		reg.Gauge(prefix+"ge_bad_share", func() float64 {
			if ge, ok := l.LossModel().(*netem.GilbertElliott); ok && ge.Offered > 0 {
				return float64(ge.BadOffered) / float64(ge.Offered)
			}
			return 0
		})
	}
}

func registerCallMetrics(reg *obs.Registry, call *vca.Call) {
	for _, s := range call.Servers {
		reg.Gauge("vca/"+s.Name+"/fwd_switches", func() float64 { return float64(s.FwdSwitches()) })
		for _, legName := range s.LegNames() {
			reg.Gauge("vca/"+s.Name+"/leg/"+legName+"/fwd_bytes", func() float64 {
				return float64(s.LegFwdBytes(legName))
			})
		}
	}
	for _, cl := range call.Clients {
		reg.Gauge("vca/"+cl.Name+"/target_bps", func() float64 {
			if cc := cl.CC(); cc != nil {
				return cc.TargetBps()
			}
			return 0
		})
	}
}

// kept is what flush needs of a finished trial's capture: nothing
// without a writer, and the rings only for a trace writer, so rings a
// trial records for a check alone (RunFuzz's) are not held until the
// sweep ends. Nil-safe.
func (o *trialObs) kept() *trialObs {
	if o == nil || (o.traceW == nil && o.metricsW == nil) {
		return nil
	}
	if o.traceW == nil {
		o.rings = nil
	}
	return o
}

// flush writes the trial's capture, each stream behind a trial-header
// line — the sweep's label, the trial's (condition, rep) position in it,
// its seed and the trace's retention accounting — so a file holding many
// sweeps stays self-describing. The trace is the per-engine rings merged
// in (time, control-then-shard-index) order. Nil-safe.
func (o *trialObs) flush(label string, cond, rep int) error {
	if o == nil {
		return nil
	}
	id := fmt.Sprintf(`{"kind":"trial","sweep":%q,"cond":%d,"rep":%d,"seed":%d`, label, cond, rep, o.seed)
	if o.traceW != nil && o.rings != nil {
		tr := obs.Merge(o.rings...)
		if _, err := fmt.Fprintf(o.traceW, "%s,\"trace_events\":%d,\"trace_dropped\":%d}\n", id, tr.Total(), tr.Dropped()); err != nil {
			return err
		}
		if err := tr.WriteJSONL(o.traceW); err != nil {
			return err
		}
	}
	if o.metricsW != nil && o.log != nil {
		if err := o.log.Err(); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(o.metricsW, "%s}\n", id); err != nil {
			return err
		}
		if _, err := o.log.WriteTo(o.metricsW); err != nil {
			return err
		}
	}
	return nil
}
