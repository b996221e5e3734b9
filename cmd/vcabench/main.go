// Command vcabench regenerates the paper's tables and figures, plus the
// extension experiments. Each experiment id maps to one table or figure of
// MacMillan et al. (IMC 2021) or one extension workload; see EXPERIMENTS.md
// at the repo root for the full index, or run with -list.
//
// Usage:
//
//	vcabench -list
//	vcabench -experiment table2
//	vcabench -experiment fig1a -reps 5
//	vcabench -experiment scale -quick
//	vcabench -experiment scale -shards 3
//	vcabench -experiment all -quick
//	vcabench -experiment fig12 -quick -trace t.jsonl -metrics m.jsonl
//	vcabench -fuzz 50 -quick -trace t.jsonl
//
// Independent trials fan out across all cores by default (-parallel 0);
// output is byte-identical to a sequential run (-parallel 1) because each
// trial is seeded from (base seed, trial index) on its own engine and
// results aggregate in input order. -shards N additionally partitions
// each trial's engine by region (conservative-window parallel DES);
// experiment output is byte-identical at every shard count too.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"vcalab"
)

var (
	reps     = flag.Int("reps", 3, "repetitions per condition (paper: 3-5)")
	quick    = flag.Bool("quick", false, "coarser grids and shorter calls")
	seed     = flag.Int64("seed", 1, "base simulation seed")
	parallel = flag.Int("parallel", 0, "trials run concurrently (0 = all cores, 1 = sequential); results are identical either way")
	shards   = flag.Int("shards", 1, "region shards per trial for scale/dynamic/fuzz (<= 1 = one engine; capped at the region count); experiment output is identical at every value")
	progress = flag.Bool("progress", true, "report per-sweep trial progress on stderr")
	list     = flag.Bool("list", false, "list experiment ids with descriptions and exit")
	scen     = flag.String("scenario", "all", "with -experiment dynamic: canned scenario name (see EXPERIMENTS.md), `gen[:seed]` for a generated one, or `all`")
	fuzzN    = flag.Int("fuzz", 0, "replay N seeded generated scenarios through the invariant harness (seeds -seed..-seed+N-1); exits non-zero and prints the offending seed on any violation")
	recovery = flag.String("recovery", "off", "packet-level loss recovery (NACK/RTX, jitter buffer, TWCC feedback): `on|off`; applies to -experiment impairment/scale/dynamic and -fuzz")

	traceFile   = flag.String("trace", "", "write a structured JSONL event trace of every trial (packet enqueue/dequeue/drop/deliver, CC decisions, forward switches, scenario and churn events) to `FILE`")
	metricsFile = flag.String("metrics", "", "write every trial's sampled metrics and per-client getStats snapshots as JSONL to `FILE`")
	obsInterval = flag.Duration("obs-interval", time.Second, "sampling period for -metrics gauges/histograms and getStats snapshots")
	cpuprofile  = flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to `FILE`")
	memprofile  = flag.String("memprofile", "", "write a pprof heap profile to `FILE` when the run completes")
)

// extension is an experiment id beyond the paper's 17 figures
// (vcalab.Figures, which `all` runs): these read -recovery, -shards and
// -scenario, so they live with the flags.
type extension struct {
	name, desc string
	fn         func()
}

func extensions() []extension {
	return []extension{
		{"impairment", "§8 extension: random loss and jitter sweep", impairment},
		{"scale", "Cascaded large calls: participants x regions x inter-region capacity", scale},
		{"dynamic", "Dynamic scenarios: churn storms, capacity cliffs, partitions, trace replay (-scenario selects one)", dynamic},
	}
}

func main() {
	exp := flag.String("experiment", "table2",
		"experiment id (see -list): table2, fig1a..fig15, impairment, scale, dynamic, all")
	flag.Parse()

	if err := validateFlags(*exp, *scen, *recovery, *parallel, *reps, *fuzzN, *shards, obsFlags{
		trace: *traceFile, metrics: *metricsFile, interval: *obsInterval,
		cpuprofile: *cpuprofile, memprofile: *memprofile,
	}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "-cpuprofile: %v\n", err)
			os.Exit(2)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		// Runs after the workload (deferred, so it skips the os.Exit
		// failure paths, where a profile would mislead anyway).
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "-memprofile: %v\n", err)
			}
		}()
	}

	if *list {
		printList(os.Stdout)
		return
	}

	vcalab.SetDefaultParallelism(*parallel)
	if *progress {
		// The \r animation only makes sense on a terminal; on a
		// redirected stderr emit one newline-terminated line per sweep.
		tty := false
		if fi, err := os.Stderr.Stat(); err == nil {
			tty = fi.Mode()&os.ModeCharDevice != 0
		}
		vcalab.SetProgress(func(label string, done, total int) {
			switch {
			case tty:
				fmt.Fprintf(os.Stderr, "\r[%-40s] %d/%d trials", label, done, total)
				if done == total {
					fmt.Fprintln(os.Stderr)
				}
			case done == total:
				fmt.Fprintf(os.Stderr, "[%s] %d trials done\n", label, total)
			}
		})
	}

	defer openCapture()()
	if *fuzzN > 0 {
		runFuzz()
		return
	}
	// validateFlags vetted *exp against the same two registries.
	for _, f := range vcalab.Figures() {
		if *exp == "all" {
			fmt.Printf("\n===== %s =====\n", f.ID)
		}
		if *exp == "all" || f.ID == *exp {
			f.Run(*quick, *reps, *seed, os.Stdout)
		}
	}
	for _, e := range extensions() {
		if e.name == *exp {
			e.fn()
		}
	}
}

// printList is -list: every figure, then every extension.
func printList(w io.Writer) {
	fmt.Fprintf(w, "%-12s %s\n", "id", "description")
	for _, f := range vcalab.Figures() {
		fmt.Fprintf(w, "%-12s %s\n", f.ID, f.Desc)
	}
	for _, e := range extensions() {
		fmt.Fprintf(w, "%-12s %s (extension; not part of `all`)\n", e.name, e.desc)
	}
	fmt.Fprintf(w, "%-12s %s\n", "all", "every paper figure/table above in sequence")
}

// openCapture opens the -trace/-metrics files and makes them the capture
// of every sweep this process runs: each file holds every trial's capture
// in run order, each behind a self-describing trial-header line. The
// returned func ends the capture once every result is printed; a file
// that could not be written whole fails the run there with exit code 1.
// validateFlags already probed both paths for writability, so a failure
// to open is an unexpected race and exits 2 like any other bad invocation.
func openCapture() (end func()) {
	if *traceFile == "" && *metricsFile == "" {
		return func() {}
	}
	var files []*os.File
	open := func(path string) io.Writer {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		files = append(files, f)
		return f
	}
	vcalab.SetCapture(&vcalab.ObsConfig{
		Trace: *traceFile != "", Metrics: *metricsFile != "", Interval: *obsInterval,
	}, open(*traceFile), open(*metricsFile))
	return func() {
		err := vcalab.SetCapture(nil, nil, nil)
		for _, f := range files {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "vcabench: -trace/-metrics output is incomplete: %v\n", err)
			os.Exit(1)
		}
	}
}

func threeVCAs() []*vcalab.Profile {
	return []*vcalab.Profile{vcalab.Meet(), vcalab.Teams(), vcalab.Zoom()}
}

// recoveryOn reports the -recovery toggle as the bool the experiment
// configs take; validateFlags already vetted the value.
func recoveryOn() bool { return *recovery == "on" }

// impairment is the §8 future-work extension: random loss and jitter.
// With -recovery on the same sweep runs with NACK/RTX, jitter buffers
// and TWCC enabled — the loss-recovery evaluation of EXPERIMENTS.md.
func impairment() {
	for _, p := range threeVCAs() {
		vcalab.PrintImpairment(os.Stdout, vcalab.RunImpairment(impairmentConfig(p)))
	}
}

// impairmentConfig is the -experiment impairment grid for one VCA.
func impairmentConfig(p *vcalab.Profile) vcalab.ImpairmentConfig {
	return vcalab.ImpairmentConfig{
		Profile: p, LossPcts: []float64{0, 0.5, 1, 2, 5},
		Jitter: 20 * time.Millisecond, Reps: *reps, Seed: *seed,
		Recovery: recoveryOn(),
	}
}

// scaleConfig is the grid for -experiment scale.
func scaleConfig(p *vcalab.Profile) vcalab.ScaleConfig {
	cfg := vcalab.ScaleConfig{
		Profile:      p,
		Participants: []int{12, 24, 48},
		Regions:      3,
		InterMbps:    []float64{5, 20},
		Reps:         *reps,
		Dur:          60 * time.Second,
		Warmup:       20 * time.Second,
		Seed:         *seed,
		Shards:       *shards,
		Recovery:     recoveryOn(),
	}
	if *quick {
		cfg.Participants = []int{8, 16}
		cfg.InterMbps = []float64{10}
		cfg.Dur = 30 * time.Second
		cfg.Warmup = 10 * time.Second
	}
	return cfg
}

// scale is the cascade extension: geo-distributed relay meshes carrying
// large calls, swept over participants and inter-region capacity.
func scale() {
	for _, p := range threeVCAs() {
		rs := vcalab.RunScale(scaleConfig(p))
		vcalab.PrintScale(os.Stdout, rs)
	}
}

// runFuzz is the -fuzz N mode: replay N seeded generated scenarios
// through the scenario invariant harness and exit non-zero on any
// violation, printing the offending seed so `-fuzz 1 -seed S`
// reproduces it. -quick shrinks the per-seed call; the seeds and the
// verdict for a given (seed, quick) pair are identical at any -parallel.
func runFuzz() {
	cfg := vcalab.FuzzConfig{
		N:        *fuzzN,
		Seed:     *seed,
		Shards:   *shards,
		Recovery: recoveryOn(),
	}
	if *quick {
		cfg.Participants = 6
		cfg.Dur = 30 * time.Second
	}
	r := vcalab.RunFuzz(cfg)
	vcalab.PrintFuzz(os.Stdout, r, cfg.Recovery)
	if len(r.Failures) > 0 {
		os.Exit(1)
	}
}

// dynamicConfig is the shared grid for -experiment dynamic: a canned or
// generated scenario instantiated for the (quick-aware) cascade topology.
func dynamicConfig(p *vcalab.Profile, scenarioName string) vcalab.DynamicConfig {
	cfg := vcalab.DynamicConfig{
		Profile:      p,
		Participants: 12,
		Regions:      3,
		InterMbps:    20,
		Reps:         *reps,
		Dur:          90 * time.Second,
		Warmup:       15 * time.Second,
		Seed:         *seed,
		Shards:       *shards,
		Recovery:     recoveryOn(),
	}
	if *quick {
		cfg.Participants = 8
		cfg.Regions = 2
		cfg.InterMbps = 10
		cfg.Dur = 80 * time.Second
		cfg.Warmup = 10 * time.Second
	}
	if genSeed, ok, err := genScenarioSeed(scenarioName); ok {
		if err != nil {
			// validateFlags vetted the name already; reaching here is a bug.
			panic(err)
		}
		cfg.Scenario = vcalab.GenerateScenario(genSeed, vcalab.GenScenarioConfig{
			Participants: cfg.Participants,
			Regions:      cfg.Regions,
			InterBps:     cfg.InterMbps * 1e6,
			Dur:          cfg.Dur,
		})
		return cfg
	}
	sc, err := vcalab.CannedScenario(scenarioName, cfg.Participants, cfg.InterMbps*1e6)
	if err != nil {
		// validateFlags vetted the name already; reaching here is a bug.
		panic(err)
	}
	cfg.Scenario = sc
	return cfg
}

// dynamic replays the canned scenarios (or the one chosen with -scenario,
// including `gen[:seed]` for a generated timeline) against every VCA: the
// changing-conditions workload axis. `all` stays the five canned
// scenarios so existing outputs are untouched.
func dynamic() {
	names := vcalab.CannedScenarioNames()
	if *scen != "all" {
		names = []string{*scen}
	}
	for _, p := range threeVCAs() {
		for _, name := range names {
			vcalab.PrintDynamic(os.Stdout, vcalab.RunDynamic(dynamicConfig(p, name)))
		}
	}
}
