// Determinism proof for the parallel sweep engine: the experiment runners
// executed through an 8-worker pool must produce results byte-identical to
// a sequential (parallelism 1) run for equal seeds. This is the contract
// that lets vcabench default to all cores without changing any paper
// artifact. It lives in an external test package so it can drive the real
// experiment harness on top of the runner under test.
package runner_test

import (
	"reflect"
	"testing"
	"time"

	"vcalab/internal/experiment"
	"vcalab/internal/vca"
)

// setParallelism sets every sweep's trial parallelism for the rest of the
// test and restores the GOMAXPROCS default when it ends.
func setParallelism(t *testing.T, n int) {
	experiment.SetDefaultParallelism(n)
	t.Cleanup(func() { experiment.SetDefaultParallelism(0) })
}

func staticSweep(t *testing.T, parallel int) []experiment.StaticResult {
	setParallelism(t, parallel)
	return experiment.RunStatic(experiment.StaticConfig{
		Profile:  vca.Meet(),
		Dir:      experiment.Uplink,
		CapsMbps: []float64{0.5, 1, 2},
		Reps:     2,
		Dur:      60 * time.Second,
		Seed:     1,
	})
}

func TestStaticParallelMatchesSequential(t *testing.T) {
	seq := staticSweep(t, 1)
	par := staticSweep(t, 8)
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("StaticResult slices differ between parallelism 1 and 8:\nseq: %+v\npar: %+v", seq, par)
	}
}

func disruptionRun(t *testing.T, parallel int) experiment.DisruptionResult {
	setParallelism(t, parallel)
	return experiment.RunDisruption(experiment.DisruptionConfig{
		Profile:   vca.Zoom(),
		Dir:       experiment.Uplink,
		LevelMbps: 0.5,
		Reps:      4,
		Seed:      3,
	})
}

func TestDisruptionParallelMatchesSequential(t *testing.T) {
	seq := disruptionRun(t, 1)
	par := disruptionRun(t, 8)
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("DisruptionResult differs between parallelism 1 and 8:\nseq: %+v\npar: %+v", seq, par)
	}
}

func TestImpairmentParallelMatchesSequential(t *testing.T) {
	run := func(parallel int) []experiment.ImpairmentResult {
		setParallelism(t, parallel)
		return experiment.RunImpairment(experiment.ImpairmentConfig{
			Profile:  vca.Teams(),
			LossPcts: []float64{0, 2},
			Jitter:   10 * time.Millisecond,
			Reps:     2,
			Seed:     5,
		})
	}
	if seq, par := run(1), run(8); !reflect.DeepEqual(seq, par) {
		t.Errorf("ImpairmentResult differs between parallelism 1 and 8:\nseq: %+v\npar: %+v", seq, par)
	}
}
