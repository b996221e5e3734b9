package experiment

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// setParallelism sets every sweep's trial parallelism for the rest of the
// test and restores the GOMAXPROCS default when it ends.
func setParallelism(t testing.TB, n int) {
	SetDefaultParallelism(n)
	t.Cleanup(func() { SetDefaultParallelism(0) })
}

// TestSweepHonoursDefaultParallelism: output is identical at any
// parallelism, so no determinism test notices a sweep that ignores
// SetDefaultParallelism. This one watches the trials in flight instead.
func TestSweepHonoursDefaultParallelism(t *testing.T) {
	t.Run("two", func(t *testing.T) {
		// Each trial waits until both have started: only a pool of at
		// least two workers gets past the barrier.
		setParallelism(t, 2)
		var arrived sync.WaitGroup
		arrived.Add(2)
		both := make(chan struct{})
		go func() { arrived.Wait(); close(both) }()
		sweep("barrier", nil, []int{0, 1}, 1, func(_ *trialObs, _ int, _ int) bool {
			arrived.Done()
			select {
			case <-both:
			case <-time.After(5 * time.Second):
				t.Error("two trials were never in flight together at parallelism 2")
			}
			return true
		})
	})
	t.Run("one", func(t *testing.T) {
		// Enough cores that a sweep falling back to GOMAXPROCS would
		// overlap its trials.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
		setParallelism(t, 1)
		var inFlight, peak atomic.Int32
		sweep("serial", nil, []int{0, 1}, 2, func(_ *trialObs, _ int, _ int) bool {
			n := inFlight.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			time.Sleep(10 * time.Millisecond)
			inFlight.Add(-1)
			return true
		})
		if p := peak.Load(); p != 1 {
			t.Errorf("%d trials in flight at parallelism 1, want 1", p)
		}
	})
}
