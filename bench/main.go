// Command bench is vcalab's benchmark: four workloads people actually
// run, four end-to-end host-cost metrics with fixed regression bounds,
// and a traced mode that attributes the cost to layers. It observes the
// system from outside, through the vcalab facade, the layers' exported
// functions, runtime/pprof and runtime.MemStats. See README.md.
//
//	go run . -workload paper_suite -seed 1            # timed run
//	go run . -workload paper_suite -seed 1 -trace 1   # per-layer run
//	go run . -compare a.jsonl b.jsonl                 # two sets of -record files
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"vcalab"
)

// processStart anchors setup_s and span times; package initialisation
// runs within a millisecond of exec.
var processStart = time.Now()

// setupRepeats is how often a run repeats its set-up to report a median.
const setupRepeats = 5

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	passes   int
	outDir   string
	record   string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "base seed every trial seed derives from")
	flag.Float64Var(&o.seconds, "seconds", 25, "time budget for passes; as many whole passes as fit, at least one")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics; 0 = timed run printing the end-to-end metrics")
	flag.IntVar(&o.passes, "passes", 0, "run exactly this many passes and ignore -seconds (0 = fill -seconds)")
	flag.StringVar(&o.outDir, "outdir", "out", "directory for profiles, spans and observability captures of a traced run")
	flag.StringVar(&o.record, "record", "", "append this run's report as one JSON line to `FILE`, the input of -compare")
	compare := flag.Bool("compare", false, "compare two -record files given as arguments and exit")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(2, "usage: bench -compare a.jsonl b.jsonl")
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(1, "%v", err)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatal(2, "-trace must be 0 or 1")
	}
	o.trace = *trace == 1
	if o.trace {
		// Sample allocations 8x finer than the default for the per-layer
		// alloc_mb; set before the first allocation of the workload.
		runtime.MemProfileRate = 64 << 10
	}
	var w *workload
	for _, c := range workloads() {
		if c.name == o.workload {
			w = &c
		}
	}
	if w == nil {
		fatal(2, "unknown -workload %q; have %s", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds <= 0 || o.passes < 0 || flag.NArg() != 0 {
		fatal(2, "-seconds must be positive, -passes non-negative, and no arguments may follow the flags")
	}

	rep, err := run(*w, o)
	if err != nil {
		fatal(1, "%v", err)
	}
	rep.print(os.Stdout)
	if o.record != "" {
		if err := appendJSONLine(o.record, rep); err != nil {
			fatal(1, "%v", err)
		}
	}
	// The last line of stdout is the machine-readable result.
	defs := endToEnd
	if o.trace {
		defs = perLayer()
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.OpsFailed == 0, rep.Ops, rep.OpsFailed, map[string]value{}}
	for _, d := range defs {
		out.Metrics[d.Name] = value{rep.Metrics[d.Name], d.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(1, "%v", err)
	}
	fmt.Println(string(line))
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(code)
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	return names
}

func appendJSONLine(path string, v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// hostRecord pins the conditions a run's numbers were taken under.
type hostRecord struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Rev        string `json:"rev"`
}

func host() hostRecord {
	h := hostRecord{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Rev: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// Stamped by `go build` inside a git checkout; the driver's copies
	// are not one.
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				h.Rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
		h.Rev += dirty
	}
	return h
}

// report is everything one run observed; -record stores it and -compare
// reads it back.
type report struct {
	Workload     string             `json:"workload"`
	Seed         int64              `json:"seed"`
	Trace        bool               `json:"trace"`
	Host         hostRecord         `json:"host"`
	Ops          int                `json:"ops"`
	OpsFailed    int                `json:"ops_failed"`
	OutputSHA256 string             `json:"output_sha256"`
	Failures     []string           `json:"failures,omitempty"`
	Metrics      map[string]float64 `json:"metrics"`
	// Dists are the within-run distributions behind the end-to-end
	// medians (over passes; over set-ups for setup_s).
	Dists map[string]dist `json:"dists"`
	Notes []string        `json:"notes,omitempty"`
}

func (r *report) print(w io.Writer) {
	mode := "timed"
	defs := endToEnd
	if r.Trace {
		mode, defs = "traced", perLayer()
	}
	fmt.Fprintf(w, "# bench %s seed %d (%s run)\n", r.Workload, r.Seed, mode)
	fmt.Fprintf(w, "host: %s, nproc %d, GOMAXPROCS %d, %s, rev %s\n", r.Host.CPU, r.Host.NProc, r.Host.GOMAXPROCS, r.Host.Go, r.Host.Rev)
	fmt.Fprintf(w, "ops %d  ops_failed %d  output_sha256 %s\n", r.Ops, r.OpsFailed, r.OutputSHA256)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "FAILED %s\n", f)
	}
	for _, d := range defs {
		fmt.Fprintf(w, "%-32s %14.6g %-13s", d.Name, r.Metrics[d.Name], d.Unit)
		if ds, ok := r.Dists[d.Name]; ok {
			fmt.Fprintf(w, " n=%d min %.6g max %.6g", ds.N, ds.Min, ds.Max)
		}
		fmt.Fprintln(w)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

// tracedPart is the profiled half of a traced run: its spans, its passes
// and the profile's CPU seconds and allocated bytes by layer.
type tracedPart struct {
	tr           *tracer
	runs         []passRun
	cpuS, allocB map[string]float64
}

// passRun is one measured pass.
type passRun struct {
	cost   cost
	sha    string
	trials int
	pass   *pass
}

func run(w workload, o options) (*report, error) {
	workers := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(workers)
	vcalab.SetDefaultParallelism(w.parallel)
	var trials atomic.Int64
	vcalab.SetProgress(func(string, int, int) { trials.Add(1) })

	rep := &report{Workload: w.name, Seed: o.seed, Trace: o.trace, Host: host(),
		Metrics: map[string]float64{}, Dists: map[string]dist{}}

	// Set-up: the first repeat runs from process start and pays the lazy
	// initialisation; the median over the repeats is what a later PR may
	// not grow by moving work out of the passes.
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		w.warm(o.seed)
		setups = append(setups, time.Since(t0).Seconds())
	}

	runPass := func(tr *tracer) passRun {
		runtime.GC() // every pass starts from the same heap
		h := sha256.New()
		p := &pass{seed: o.seed, out: h, tr: tr}
		before := trials.Load()
		end := tr.span("pass")
		m := startMeter()
		w.pass(p)
		c := m.stop()
		end()
		return passRun{cost: c, sha: hex.EncodeToString(h.Sum(nil)), trials: int(trials.Load() - before), pass: p}
	}
	// runPasses fills budget with whole passes: it starts another only
	// if the slowest so far would still fit.
	runPasses := func(budget time.Duration, tr *tracer) []passRun {
		var runs []passRun
		start, slowest := time.Now(), 0.0
		for {
			r := runPass(tr)
			if len(runs) > 0 {
				r.pass = nil // only the first pass's results are checked
			}
			runs = append(runs, r)
			slowest = max(slowest, r.cost.wall)
			if o.passes > 0 {
				if len(runs) == o.passes {
					return runs
				}
			} else if time.Since(start).Seconds()+slowest > budget.Seconds() {
				return runs
			}
		}
	}

	budget := time.Duration(o.seconds * float64(time.Second))
	var t tally
	var timed []passRun
	var tp tracedPart
	if !o.trace {
		timed = runPasses(budget, nil)
	} else {
		if err := os.MkdirAll(o.outDir, 0o755); err != nil {
			return nil, err
		}
		timed = runPasses(budget/2, nil)
		tp.tr = &tracer{}
		prof, err := startProfiler(o.outDir, w.name)
		if err != nil {
			return nil, err
		}
		tp.runs = runPasses(budget/2, tp.tr)
		if tp.cpuS, tp.allocB, err = prof.stop(); err != nil {
			return nil, err
		}
	}

	// Operations: every trial, one determinism check per pass, and the
	// result checks on the first pass (equal hashes mean equal results).
	first := timed[0]
	rep.OutputSHA256 = first.sha
	for i, r := range slices.Concat(timed, tp.runs) {
		t.attempted += r.trials
		same := r.sha == first.sha
		t.check(same, "determinism: pass %d printed %s, pass 0 printed %s", i, r.sha, first.sha)
		if !same {
			t.failed += r.trials
		}
	}
	checkInvariants(first.pass.results, &t)
	if w.claims != nil {
		w.claims(first.pass, &t)
	}

	costs := func(runs []passRun, f func(cost) float64) []float64 {
		var vs []float64
		for _, r := range runs {
			vs = append(vs, f(r.cost))
		}
		return vs
	}
	for name, vs := range map[string][]float64{
		"wall_s":   costs(timed, func(c cost) float64 { return c.wall }),
		"cpu_s":    costs(timed, func(c cost) float64 { return c.cpu }),
		"alloc_mb": costs(timed, func(c cost) float64 { return c.allocMB }),
		"setup_s":  setups,
	} {
		rep.Dists[name] = summarize(vs)
		rep.Metrics[name] = rep.Dists[name].Median
	}

	if o.trace {
		if err := traceMetrics(w, o, rep, &t, tp, first.pass, workers); err != nil {
			return nil, err
		}
	}
	rep.Ops, rep.OpsFailed, rep.Failures = t.attempted, t.failed, t.failures
	return rep, nil
}

// traceMetrics fills in the per-layer metrics of a traced run: profile
// shares per pass, the replay trial's exact counts, the probes, and the
// tracing overhead. It writes the spans and captures under o.outDir.
func traceMetrics(w workload, o options, rep *report, t *tally, tp tracedPart, first *pass, workers int) error {
	tr, traced, cpuS, allocB := tp.tr, tp.runs, tp.cpuS, tp.allocB
	m := rep.Metrics
	n := float64(len(traced))
	var profiled float64
	for _, l := range cpuLayers {
		m[l+".self_cpu_s"] = cpuS[l] / n
		profiled += cpuS[l] / n
	}
	for _, l := range allocLayers {
		m[l+".alloc_mb"] = allocB[l] / n / 1e6
	}
	var tracedWall, tracedCPU []float64
	for _, r := range traced {
		tracedWall = append(tracedWall, r.cost.wall)
		tracedCPU = append(tracedCPU, r.cost.cpu)
	}
	m["trace.overhead_ratio"] = summarize(tracedWall).Median / m["wall_s"]
	rep.Notes = append(rep.Notes, fmt.Sprintf("self_cpu_s sums to %.3f s per traced pass; getrusage says %.3f s (%d traced passes, %d untraced)",
		profiled, summarize(tracedCPU).Median, len(traced), rep.Dists["wall_s"].N))

	m["runner.trials"] = float64(traced[0].trials)
	m["runner.workers"] = float64(min(w.parallel, workers))
	m["runner.parallel_efficiency"] = m["cpu_s"] / (m["wall_s"] * m["runner.workers"])

	c := runReplay(w.replay, o.seed, tr)
	t.attempted++ // the replay trial
	t.check(len(c.leaks) == 0, "replay: after Stop and drain: %s", strings.Join(c.leaks, "; "))
	t.check(c.freezeInRange, "replay: a freeze ratio left [0,1]")
	if w.replay.recovery {
		t.check(c.nacked > 0, "replay: recovery on but no seq was NACKed")
		rep.Notes = append(rep.Notes, fmt.Sprintf("the replay adds %g%% loss on every link to drive NACK/RTX; the passes lose nothing on an SFU-to-client leg", w.replay.lossPct))
	} else {
		rep.Notes = append(rep.Notes, "rtp.* counts are structurally zero: this workload runs with recovery off")
	}
	m["sim.events"] = float64(c.events)
	m["sim.ns_per_event"] = c.runWallS * 1e9 / float64(c.events)
	m["sim.event_high_water"] = float64(c.eventHW)
	m["sim.wheel_insert_ratio"] = c.wheelRatio
	m["sim.slice_p95_ms"] = c.sliceP95Ms
	m["netem.packets_delivered"] = float64(c.delivered)
	m["netem.packets_dropped"] = float64(c.dropped)
	m["netem.drop_ratio"] = float64(c.dropped) / float64(c.dropped+c.delivered)
	m["netem.queue_high_water_bytes"] = float64(c.queueHWBytes)
	m["vca.fwd_switches"] = float64(c.fwdSwitches)
	m["rtp.nacked_seqs"] = float64(c.nacked)
	m["rtp.retransmissions"] = float64(c.rtx)
	m["rtp.rtx_per_nack"] = 0
	if c.nacked > 0 {
		m["rtp.rtx_per_nack"] = float64(c.rtx) / float64(c.nacked)
	}
	m["go_gc.mallocs"] = float64(c.mallocs)
	m["go_gc.cycles"] = float64(c.gcCycles)
	m["go_gc.pause_ms"] = c.gcPauseMs
	m["go_gc.heap_peak_mb"] = c.heapPeakMB
	m["go_gc.allocs_per_event"] = float64(c.mallocs) / float64(c.events)

	if w.observed != nil {
		if err := checkReadOnly(w, o, tr, first, t); err != nil {
			return err
		}
	}

	end := tr.span("probes")
	sim, netem, codec, vcaP := probeSim(), probeNetem(), probeCodec(), probeVCA()
	m["probe.sim.ns_per_event"], m["probe.sim.allocs_per_event"] = sim.nsPerOp, sim.allocsPerOp
	m["probe.netem.ns_per_packet"], m["probe.netem.allocs_per_packet"] = netem.nsPerOp, netem.allocsPerOp
	m["probe.codec.ns_per_tick"], m["probe.codec.bytes_per_tick"] = codec.nsPerOp, codec.bytesPerOp
	m["probe.cc.ns_per_feedback"] = probeCC().nsPerOp
	m["probe.media.ns_per_packet"] = probeMedia().nsPerOp
	m["probe.rtp.ns_per_packet"] = probeRTP().nsPerOp
	m["probe.vca.ns_per_event"], m["probe.vca.allocs_per_event"] = vcaP.nsPerOp, vcaP.allocsPerOp
	m["probe.stats.ns_per_sample"] = probeStats().nsPerOp
	m["probe.runner.ns_per_trial"] = probeRunner(workers).nsPerOp
	end()

	spans := filepath.Join(o.outDir, w.name+"-spans.jsonl")
	rep.Notes = append(rep.Notes, fmt.Sprintf("spans, profiles and captures are under %s", o.outDir))
	return tr.write(spans)
}

// checkReadOnly re-runs one dynamic cell of the pass with the ObsConfig
// capture on, keeps the JSONL it emits, and requires the
// printed result to match the uncaptured pass byte for byte.
func checkReadOnly(w workload, o options, tr *tracer, first *pass, t *tally) error {
	files := make([]*os.File, 2)
	for i, kind := range []string{"obs-trace", "obs-metrics"} {
		f, err := os.Create(filepath.Join(o.outDir, w.name+"-"+kind+".jsonl"))
		if err != nil {
			return err
		}
		defer f.Close()
		files[i] = f
	}
	end := tr.span("RunDynamic observed")
	r := w.observed(o.seed, files[0], files[1])
	end()
	var got, want strings.Builder
	vcalab.PrintDynamic(&got, r)
	for _, d := range first.dynamic {
		if d.Profile == r.Profile && d.Scenario == r.Scenario {
			vcalab.PrintDynamic(&want, d)
		}
	}
	t.attempted++ // the observed trial
	t.check(got.String() == want.String(), "read-only: capture changed the printed result:\n%s\nwant:\n%s", got.String(), want.String())
	for _, f := range files {
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
