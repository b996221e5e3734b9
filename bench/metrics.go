package main

// metricDef is one metric as BENCHMARK.json declares it. The tables
// here are the source; bench_test.go holds BENCHMARK.json to them.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

const lower, higher = "lower", "higher"

// endToEnd are host-time costs of one pass, the median over a run's
// passes; setup_s is the median over the run's repeated set-ups. bound
// is the share of the parent's median a metric may worsen by. The time
// bounds are as wide as the driver allows because the host is that
// noisy: over ten seeds wall_s and cpu_s spread 5-13% (see README), and
// a bound has to sit above the spread. alloc_mb spreads 0.1%.
var endToEnd = []metricDef{
	{"wall_s", "s", lower, 0.25},
	{"cpu_s", "s", lower, 0.25},
	{"alloc_mb", "MB", lower, 0.03},
	{"setup_s", "s", lower, 0.25},
}

// perLayer lists every per-layer metric a traced run prints, in print
// order.
func perLayer() []metricDef {
	var ms []metricDef
	for _, l := range cpuLayers {
		ms = append(ms, metricDef{Name: l + ".self_cpu_s", Unit: "s", Better: lower})
	}
	for _, l := range allocLayers {
		ms = append(ms, metricDef{Name: l + ".alloc_mb", Unit: "MB", Better: lower})
	}
	return append(ms, []metricDef{
		// Exact counts from the replay trial.
		{Name: "sim.events", Unit: "count", Better: lower},
		{Name: "sim.ns_per_event", Unit: "ns/event", Better: lower},
		{Name: "sim.event_high_water", Unit: "count", Better: lower},
		{Name: "sim.wheel_insert_ratio", Unit: "ratio", Better: higher},
		{Name: "sim.slice_p95_ms", Unit: "ms", Better: lower},
		{Name: "netem.packets_delivered", Unit: "count", Better: higher},
		{Name: "netem.packets_dropped", Unit: "count", Better: lower},
		{Name: "netem.drop_ratio", Unit: "ratio", Better: lower},
		{Name: "netem.queue_high_water_bytes", Unit: "bytes", Better: lower},
		{Name: "vca.fwd_switches", Unit: "count", Better: lower},
		{Name: "rtp.nacked_seqs", Unit: "count", Better: lower},
		{Name: "rtp.retransmissions", Unit: "count", Better: lower},
		{Name: "rtp.rtx_per_nack", Unit: "ratio", Better: higher},
		{Name: "go_gc.mallocs", Unit: "count", Better: lower},
		{Name: "go_gc.cycles", Unit: "count", Better: lower},
		{Name: "go_gc.pause_ms", Unit: "ms", Better: lower},
		{Name: "go_gc.heap_peak_mb", Unit: "MB", Better: lower},
		{Name: "go_gc.allocs_per_event", Unit: "allocs/event", Better: lower},
		{Name: "runner.trials", Unit: "count", Better: higher},
		{Name: "runner.workers", Unit: "count", Better: higher},
		{Name: "runner.parallel_efficiency", Unit: "ratio", Better: higher},
		// Isolated probes.
		{Name: "probe.sim.ns_per_event", Unit: "ns/event", Better: lower},
		{Name: "probe.sim.allocs_per_event", Unit: "allocs/event", Better: lower},
		{Name: "probe.netem.ns_per_packet", Unit: "ns/packet", Better: lower},
		{Name: "probe.netem.allocs_per_packet", Unit: "allocs/packet", Better: lower},
		{Name: "probe.codec.ns_per_tick", Unit: "ns/tick", Better: lower},
		{Name: "probe.codec.bytes_per_tick", Unit: "B/tick", Better: lower},
		{Name: "probe.cc.ns_per_feedback", Unit: "ns/feedback", Better: lower},
		{Name: "probe.media.ns_per_packet", Unit: "ns/packet", Better: lower},
		{Name: "probe.rtp.ns_per_packet", Unit: "ns/packet", Better: lower},
		{Name: "probe.vca.ns_per_event", Unit: "ns/event", Better: lower},
		{Name: "probe.vca.allocs_per_event", Unit: "allocs/event", Better: lower},
		{Name: "probe.stats.ns_per_sample", Unit: "ns/sample", Better: lower},
		{Name: "probe.runner.ns_per_trial", Unit: "ns/trial", Better: lower},
		{Name: "trace.overhead_ratio", Unit: "ratio", Better: lower},
	}...)
}
