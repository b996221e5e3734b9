package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"vcalab"
)

// BENCHMARK.json at the repo root must declare exactly the workloads and
// metrics the code prints, under names the driver accepts.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		t.Helper()
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or repeated", n)
		}
		seen[n] = true
	}

	ws := workloads()
	if len(decl.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, code has %d", len(decl.Workloads), len(ws))
	}
	for i, w := range ws {
		checkName(w.name)
		if decl.Workloads[i].Name != w.name || decl.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, code {%s %s}", i, decl.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	for _, c := range []struct {
		what       string
		decl, code []metricDef
	}{{"end_to_end", decl.EndToEnd, endToEnd}, {"per_layer", decl.PerLayer, perLayer()}} {
		if !reflect.DeepEqual(c.decl, c.code) {
			t.Errorf("%s differs:\nBENCHMARK.json %+v\ncode           %+v", c.what, c.decl, c.code)
		}
		for _, d := range c.code {
			checkName(d.Name)
			if !unit.MatchString(d.Unit) || (d.Better != lower && d.Better != higher) {
				t.Errorf("metric %+v: bad unit or direction", d)
			}
		}
	}
	if n := len(perLayer()); n > 128 {
		t.Errorf("%d per-layer metrics, the driver takes at most 128", n)
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

const cannedTop = `File: bench
Type: cpu
Time: Sep 30, 2026 at 4:00pm (UTC)
Duration: 9.60s, Total samples = 9.42s (98.12%)
Showing nodes accounting for 9.42s, 100% of 9.42s total
      flat  flat%   sum%        cum   cum%
     1.20s 12.74% 12.74%      2.30s 24.42%  vcalab/internal/sim.(*Engine).flushWheel
     800ms  8.49% 21.23%      800ms  8.49%  vcalab/internal/sim.less (inline)
     500ms  5.31% 26.54%      1.50s 15.92%  vcalab/internal/vca.(*Server).forward
     250ms  2.65% 29.19%      250ms  2.65%  vcalab/internal/netem.(*Router).Deliver
      90ms  0.96% 30.15%      3.10s 32.91%  vcalab/internal/runner.Map[go.shape.struct { vcalab/internal/experiment.down float64 }].func1
      40ms  0.42% 30.57%       40ms  0.42%  vcalab/internal/experiment.RunStatic.func1
      30ms  0.32% 30.89%       30ms  0.32%  vcalab/internal/webrtcstats.(*Recorder).Add
      20ms  0.21% 31.10%       20ms  0.21%  runtime.memmove
      10ms  0.11% 31.21%       10ms  0.11%  main.paperSuite.func1
         0     0% 31.21%      9.40s 99.79%  vcalab/internal/sim.(*Engine).RunUntil
`

func TestParseTopAggregatesByLayer(t *testing.T) {
	got := map[string]float64{}
	if err := parseTop(cannedTop, layerOf, got); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"sim": 2.0, "vca": 0.5, "netem": 0.25, "runner": 0.09, "experiment": 0.04, "go_other": 0.06}
	for l, w := range want {
		if math.Abs(got[l]-w) > 1e-9 {
			t.Errorf("layer %s: got %v s, want %v s", l, got[l], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("layers %v, want exactly %v", got, want)
	}
	// The go_gc pass sends every row of a -focus report to one layer.
	gc := map[string]float64{}
	if err := parseTop(cannedTop, func(string) string { return "go_gc" }, gc); err != nil || math.Abs(gc["go_gc"]-2.94) > 1e-9 {
		t.Errorf("single-layer pass: got %v, %v; want 2.94 s", gc, err)
	}
	if err := parseTop("no table here\n", layerOf, got); err == nil {
		t.Error("text without a flat/flat% header must be an error")
	}
}

func TestParseQuantity(t *testing.T) {
	for in, want := range map[string]float64{
		"1.20s": 1.2, "800ms": 0.8, "15us": 15e-6, "2mins": 120, "0": 0,
		"512.01kB": 512.01 * 1024, "1.50MB": 1.5 * (1 << 20), "2GB": 2 * (1 << 30), "96B": 96, "-1.5MB": -1.5 * (1 << 20),
	} {
		if got, err := parseQuantity(in); err != nil || math.Abs(got-want) > 1e-9*math.Abs(want) {
			t.Errorf("parseQuantity(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
}

func TestSummaryAndBoundArithmetic(t *testing.T) {
	d := summarize([]float64{9.5, 9.1, 10.3, 9.3})
	if d.N != 4 || d.Min != 9.1 || d.Max != 10.3 || math.Abs(d.Median-9.4) > 1e-12 {
		t.Errorf("summarize = %+v", d)
	}
	if d := summarize([]float64{7}); d.Median != 7 || d.Min != 7 || d.Max != 7 {
		t.Errorf("summarize of one value = %+v", d)
	}
	// Python: statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
	q1, q3, ok := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if !ok || q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, %v; want 2.75, 8.25", q1, q3, ok)
	}
	// statistics.quantiles([10, 11, 13], n=4) == [10.0, 11.0, 13.0].
	if q1, q3, _ := quartiles([]float64{10, 11, 13}); q1 != 10 || q3 != 13 {
		t.Errorf("quartiles of three = %v, %v; want 10, 13", q1, q3)
	}

	tight := func(center float64) sample {
		return newSample([]float64{center * 0.99, center, center, center * 1.01})
	}
	noisy := newSample([]float64{8, 10, 10, 12, 14})
	for _, c := range []struct {
		what  string
		a, b  sample
		bound float64
		want  string
	}{
		{"5% slower under a 10% bound", tight(10), tight(10.5), 0.10, "within bound"},
		{"12% slower under a 10% bound", tight(10), tight(11.2), 0.10, "worse"},
		{"faster", tight(10), tight(8), 0.10, "within bound"},
		{"spread wider than the bound", noisy, tight(10), 0.10, "unresolved"},
		{"noisy base but every b run beats every a run", noisy, tight(7), 0.10, "within bound"},
		{"a single run has no spread", newSample([]float64{10}), tight(12), 0.10, "unresolved"},
	} {
		if got := verdict(c.a, c.b, c.bound); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.what, got, c.want)
		}
	}
}

func TestInvariantWalkFlagsBadFloats(t *testing.T) {
	ok := vcalab.DynamicResult{Profile: "meet", FreezeRatio: vcalab.Summary{Mean: 0.2, Max: 0.4}}
	nan := ok
	nan.LatP95Ms.Mean = math.NaN()
	neg := vcalab.ScaleResult{RegionDownMbps: []vcalab.Summary{{Mean: 1}, {Mean: -1}}}
	frozen := ok
	frozen.FreezeRatio.Max = 1.2
	var tl tally
	checkInvariants([]any{ok, nan, neg, frozen}, &tl)
	if tl.attempted != 4 || tl.failed != 3 {
		t.Errorf("attempted %d failed %d (%v); want 4 and 3", tl.attempted, tl.failed, tl.failures)
	}
}

// A one-pass timed run of a single dynamic cell: the whole run path on
// the smallest unit any workload has.
func TestSmokeOnePass(t *testing.T) {
	w := workload{
		name:     "smoke",
		parallel: 1,
		warm:     func(int64) {},
		pass: func(p *pass) {
			r := vcalab.RunDynamic(dynamicConfig(vcalab.Meet(), observedScenario, p.seed, false))
			vcalab.PrintDynamic(p.out, r)
			p.results = append(p.results, r)
		},
	}
	rep, err := run(w, options{seed: 1, passes: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Per pass: one trial and one determinism check; then one result check.
	if rep.Ops != 5 || rep.OpsFailed != 0 || len(rep.OutputSHA256) != 64 {
		t.Errorf("ops %d failed %d sha %q (%v); want 5, 0 and a SHA-256", rep.Ops, rep.OpsFailed, rep.OutputSHA256, rep.Failures)
	}
	for _, d := range endToEnd {
		if v := rep.Metrics[d.Name]; !(v > 0) {
			t.Errorf("%s = %v, want > 0", d.Name, v)
		}
	}
	if rep.Dists["wall_s"].N != 2 || rep.Dists["setup_s"].N != setupRepeats {
		t.Errorf("dists %+v", rep.Dists)
	}
}
