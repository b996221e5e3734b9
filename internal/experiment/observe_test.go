package experiment

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"vcalab/internal/vca"
)

// captured runs fn with the process-wide capture on and returns what the
// sweeps under it wrote, failing the test on a write error.
func captured(t *testing.T, o ObsConfig, fn func()) (trace, metrics string) {
	t.Helper()
	var tw, mw strings.Builder
	SetCapture(&o, &tw, &mw)
	fn()
	if err := SetCapture(nil, nil, nil); err != nil {
		t.Fatalf("capture write failed: %v", err)
	}
	return tw.String(), mw.String()
}

// competitionTestConfig is the §5 run the capture tests share.
func competitionTestConfig(kind CompetitorKind) CompetitionConfig {
	return CompetitionConfig{Incumbent: vca.Zoom(), Kind: kind, CompProfile: vca.Teams(), LinkMbps: 1, Reps: 2, Seed: 7}
}

// TestObservedOutputUnchanged is the zero-interference gate for the
// observability layer, for every runner family through the one sweep
// path: the same condition with tracing + metrics capture on must return
// the very same result — the tracer only observes, the metrics sampler
// only reads — and the capture files themselves must be byte-identical at
// parallelism 1 and 4 (per-trial buffers flushed in trial order).
func TestObservedOutputUnchanged(t *testing.T) {
	families := []struct {
		name   string
		trials int
		run    func() any
	}{
		{"static", 4, func() any {
			return RunStatic(StaticConfig{Profile: vca.Meet(), Dir: Uplink, CapsMbps: []float64{0.5, 0},
				Reps: 2, Dur: 40 * time.Second, Seed: 1})
		}},
		{"disruption", 2, func() any {
			return RunDisruption(DisruptionConfig{Profile: vca.Meet(), Dir: Downlink, LevelMbps: 0.5, Reps: 2, Seed: 5})
		}},
		{"competition-vs-vca", 2, func() any { return RunCompetition(competitionTestConfig(CompVCA)) }},
		{"competition-vs-iperf", 2, func() any { return RunCompetition(competitionTestConfig(CompIPerf)) }},
		{"modality", 2, func() any {
			return RunModality(ModalityConfig{Profile: vca.Meet(), N: 3, Mode: vca.Speaker, Reps: 2, Seed: 3})
		}},
		{"impairment", 4, func() any {
			return RunImpairment(ImpairmentConfig{Profile: vca.Meet(), LossPcts: []float64{0, 2}, Jitter: 20 * time.Millisecond,
				Reps: 2, Seed: 11, Recovery: true})
		}},
		{"scale", 2, func() any {
			return RunScale(ScaleConfig{Profile: vca.Meet(), Participants: []int{6}, Regions: 2, InterMbps: []float64{10},
				Reps: 2, Dur: 20 * time.Second, Warmup: 5 * time.Second, Seed: 31})
		}},
		{"dynamic", 2, func() any {
			cfg := dynTestConfig(vca.Meet())
			cfg.Dur = 60 * time.Second
			return RunDynamic(cfg)
		}},
	}
	obsCfg := ObsConfig{Trace: true, Metrics: true, Interval: time.Second, TraceCap: 1 << 12}
	for _, f := range families {
		t.Run(f.name, func(t *testing.T) {
			setParallelism(t, 1)
			plain := f.run()
			var seq, par any
			seqTrace, seqMetrics := captured(t, obsCfg, func() { seq = f.run() })
			setParallelism(t, 4)
			parTrace, parMetrics := captured(t, obsCfg, func() { par = f.run() })

			if !reflect.DeepEqual(plain, seq) {
				t.Errorf("capture changed the result:\n-- off --\n%+v\n-- on --\n%+v", plain, seq)
			}
			if !reflect.DeepEqual(seq, par) {
				t.Errorf("observed result differs across parallelism:\n-- parallel 1 --\n%+v\n-- parallel 4 --\n%+v", seq, par)
			}
			if seqTrace != parTrace {
				t.Error("trace file differs across parallelism")
			}
			if seqMetrics != parMetrics {
				t.Error("metrics file differs across parallelism")
			}
			// Both files carry one self-describing header line per trial.
			for name, s := range map[string]string{"trace": seqTrace, "metrics": seqMetrics} {
				if n := strings.Count(s, `"kind":"trial","sweep":"`); n != f.trials {
					t.Errorf("%s has %d trial headers, want %d (one per trial)", name, n, f.trials)
				}
			}
			if !strings.Contains(seqTrace, `"kind":"deliver"`) {
				t.Error("trace has no packet events")
			}
			for _, want := range []string{`"type":"outbound-rtp"`, `"kind":"gauge"`, `"name":"link/`} {
				if !strings.Contains(seqMetrics, want) {
					t.Errorf("metrics capture has no %s lines", want)
				}
			}
		})
	}
}

// TestDynamicTraceRecordsChurn keeps what the dynamic-only gate used to
// assert about content: with a ring roomy enough for the late-storm
// tail, the churn storm's leave/rejoin events survive to the flush.
func TestDynamicTraceRecordsChurn(t *testing.T) {
	cfg := dynTestConfig(vca.Meet())
	// The churn storm's last rejoin lands at ~56.4s; ending shortly after
	// keeps the churn events inside the ring's retained tail.
	cfg.Dur, cfg.Reps = 60*time.Second, 1
	trace, _ := captured(t, ObsConfig{Trace: true, TraceCap: 1 << 18}, func() { RunDynamic(cfg) })
	if !strings.Contains(trace, `"kind":"churn"`) {
		t.Error("churn-storm trace records no churn events")
	}
	if !strings.Contains(trace, `"kind":"scenario"`) {
		t.Error("churn-storm trace records no timeline events")
	}
}

// TestCompetitionTraceCoversCompetitor: the §5 competitor's hosts and call
// do not exist until compAt, and the trace must still see them — packet
// events on the links wired in mid-run and CC decisions of the second
// call's clients.
func TestCompetitionTraceCoversCompetitor(t *testing.T) {
	cfg := competitionTestConfig(CompVCA)
	trace, metrics := captured(t, ObsConfig{Trace: true, Metrics: true, TraceCap: 1 << 19}, func() {
		repeat("competition", nil, 1, func(o *trialObs, _ int) competitionTrial {
			var res competitionTrial
			tr, _ := cfg.newTrial(o, cfg.Seed, &res)
			tr.run(compAt + 10*time.Second) // stop while the ring still holds the competitor's start
			return res
		})
	})
	for _, link := range []string{"f2-rt", "sfu2-rt", "rt-sfu2", "f1-sw"} {
		if !strings.Contains(trace, `"kind":"deliver","link":"`+link+`"`) {
			t.Errorf("no deliver events on %s, a link that did not exist before compAt", link)
		}
	}
	for _, client := range []string{"f1", "f2"} {
		if !strings.Contains(trace, `"kind":"cc","client":"`+client+`"`) {
			t.Errorf("no CC events for %s, a client of the competing call", client)
		}
	}
	if !strings.Contains(trace, `"trace_dropped":0}`) {
		t.Error("ring overflowed: the assertions above may have passed on a partial trace")
	}
	// Gauges are registered when the trial starts: the competitor is in
	// the trace, not in the metrics.
	if strings.Contains(metrics, "sfu2") {
		t.Error("metrics carry gauges for hosts wired in mid-run")
	}
}

// TestDynamicObsOverridesCapture: DynamicConfig.Obs/TraceW/MetricsW take
// the place of the process-wide capture for that run.
func TestDynamicObsOverridesCapture(t *testing.T) {
	cfg := dynTestConfig(vca.Meet())
	cfg.Dur, cfg.Reps = 20*time.Second, 1
	var own strings.Builder
	cfg.Obs, cfg.TraceW = &ObsConfig{Trace: true, TraceCap: 1 << 10}, &own
	wide, _ := captured(t, ObsConfig{Trace: true, Metrics: true}, func() { RunDynamic(cfg) })
	if wide != "" {
		t.Error("a run with its own Obs also wrote to the process-wide sinks")
	}
	if !strings.Contains(own.String(), `"kind":"trial","sweep":"dynamic meet/churn-storm"`) {
		t.Errorf("the run's own sink has no trial header:\n%.200s", own.String())
	}
}

// failAfter is a sink that accepts n bytes and then fails every write.
type failAfter struct {
	n   int
	err error
}

func (w *failAfter) Write(p []byte) (int, error) {
	if w.n < len(p) {
		return 0, w.err
	}
	w.n -= len(p)
	return len(p), nil
}

// TestCaptureWriteErrorSurfaces: a sink that fails mid-run must not touch
// the results — every sweep still returns exactly what it returns
// uncaptured — and the failure must reach whoever asked for the capture,
// through SetCapture's return, once.
func TestCaptureWriteErrorSurfaces(t *testing.T) {
	run := func() any {
		return Table2([]*vca.Profile{vca.Meet(), vca.Zoom()}, 1, 3)
	}
	plain := run()

	disk := errors.New("disk full")
	SetCapture(&ObsConfig{Trace: true, Metrics: true, TraceCap: 1 << 10}, &failAfter{n: 1 << 10, err: disk}, &strings.Builder{})
	got := run()
	err := SetCapture(nil, nil, nil)
	if !reflect.DeepEqual(plain, got) {
		t.Errorf("a failing trace sink changed the result:\n%+v\nwant:\n%+v", got, plain)
	}
	if !errors.Is(err, disk) {
		t.Errorf("SetCapture returned %v, want the sink's write error", err)
	}
	if err := SetCapture(nil, nil, nil); err != nil {
		t.Errorf("the error was reported twice: %v", err)
	}
}
