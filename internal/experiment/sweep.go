package experiment

import (
	"io"
	"sync"

	"vcalab/internal/runner"
	"vcalab/internal/stats"
)

// Every experiment is the paper's one recipe — conditions × independently
// seeded repetitions, a band per measured quantity — so every runner goes
// through sweep and summarize. The process-wide settings below apply to
// every sweep; DynamicConfig.Obs, when non-nil, stands in for the capture.

var (
	poolMu             sync.Mutex
	defaultParallelism int
	progressFn         func(label string, done, total int)
	defaultCapture     *capture
	captureErr         error // first failed capture write since SetCapture
)

// SetDefaultParallelism sets the trial parallelism of every sweep: 1 runs
// trials sequentially, n <= 0 restores the GOMAXPROCS default. Output is
// identical for every value.
func SetDefaultParallelism(n int) {
	poolMu.Lock()
	defer poolMu.Unlock()
	defaultParallelism = n
}

// SetProgress installs a hook called after each trial of every sweep with
// a condition label (e.g. "static meet/uplink") and the done/total trial
// counts. Calls are serialized; nil disables reporting.
func SetProgress(fn func(label string, done, total int)) {
	poolMu.Lock()
	defer poolMu.Unlock()
	progressFn = fn
}

// SetCapture installs the observability capture of every sweep: what o
// asks for is recorded per trial and written to traceW/metricsW in trial
// order as each sweep finishes, every trial behind a header line naming
// its sweep, position and seed. A nil o turns capture off. A failing sink
// never disturbs a result; SetCapture returns the first write error any
// sweep hit since the previous call, so whoever opened the sinks asks
// here, once the run is over, whether the files are whole.
func SetCapture(o *ObsConfig, traceW, metricsW io.Writer) error {
	poolMu.Lock()
	defer poolMu.Unlock()
	defaultCapture = newCapture(o, traceW, metricsW)
	err := captureErr
	captureErr = nil
	return err
}

// sweep runs every condition reps times through the worker pool and
// returns the trials grouped per condition, both in input order, so what a
// runner aggregates from them is identical at any SetDefaultParallelism.
// run builds its trial on o, the trial's buffers under cp (nil =
// SetCapture's; o is nil when capture is off), and the sweep writes them
// out in trial order once the pool drains. label names the sweep to the
// progress hook and in every capture header.
func sweep[C, T any](label string, cp *capture, conds []C, reps int, run func(o *trialObs, cond C, rep int) T) [][]T {
	poolMu.Lock()
	progress := progressFn
	if cp == nil {
		cp = defaultCapture
	}
	pool := runner.New(defaultParallelism) // <= 0 means GOMAXPROCS to the runner
	poolMu.Unlock()
	if progress != nil {
		pool.OnProgress = func(done, total int) { progress(label, done, total) }
	}

	captured := make([]*trialObs, len(conds)*reps)
	flat := runner.Map(pool, len(captured), func(i int) T {
		var o *trialObs
		if cp != nil {
			o = &trialObs{capture: cp}
		}
		r := run(o, conds[i/reps], i%reps)
		captured[i] = o.kept()
		return r
	})
	for i, o := range captured {
		if err := o.flush(label, i/reps, i%reps); err != nil {
			poolMu.Lock()
			if captureErr == nil {
				captureErr = err
			}
			poolMu.Unlock()
			break
		}
	}

	grouped := make([][]T, len(conds))
	for ci := range grouped {
		grouped[ci] = flat[ci*reps : (ci+1)*reps]
	}
	return grouped
}

// repeat is a sweep of one condition: reps trials, in order.
func repeat[T any](label string, cp *capture, reps int, run func(o *trialObs, rep int) T) []T {
	return sweep(label, cp, []struct{}{{}}, reps,
		func(o *trialObs, _ struct{}, rep int) T { return run(o, rep) })[0]
}

// summarize is the across-repetition band of one measured quantity.
func summarize[T any](trials []T, field func(T) float64) stats.Summary {
	return summarizeSome(trials, func(t T) (float64, bool) { return field(t), true })
}

// summarizeSome is summarize over the trials that have the quantity at
// all (a repetition that never recovered has no recovery time); the
// Summary's N counts them.
func summarizeSome[T any](trials []T, field func(T) (float64, bool)) stats.Summary {
	vs := make([]float64, 0, len(trials))
	for _, t := range trials {
		if v, ok := field(t); ok {
			vs = append(vs, v)
		}
	}
	return stats.Summarize(vs)
}
