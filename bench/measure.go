package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// cost is what one stretch of work cost the host.
type cost struct {
	wall, cpu, allocMB float64
}

// meter measures the cost of the work between start and stop. Reading
// MemStats stops the world, so both reads sit outside the timed window.
type meter struct {
	wall  time.Time
	cpu   float64
	alloc uint64
}

func startMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{alloc: ms.TotalAlloc, cpu: cpuSeconds(), wall: time.Now()}
}

func (m meter) stop() cost {
	c := cost{wall: time.Since(m.wall).Seconds(), cpu: cpuSeconds() - m.cpu}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.allocMB = float64(ms.TotalAlloc-m.alloc) / 1e6
	return c
}

// dist summarises repeated measurements of one metric within a run.
type dist struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

func summarize(vs []float64) dist {
	if len(vs) == 0 {
		return dist{}
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return dist{N: len(s), Median: quantile(s, 0.5), Min: s[0], Max: s[len(s)-1]}
}

// quantile interpolates linearly in an ascending slice.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// span is one traced interval around a call the benchmark makes into
// the system under test.
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"` // 0 = root
	Name     string  `json:"name"`
	StartS   float64 `json:"start_s"` // since process start
	EndS     float64 `json:"end_s"`
	SelfS    float64 `json:"self_s"` // duration minus child spans
	children float64
}

// tracer holds spans in memory until the run ends. A nil *tracer is the
// tracing-off case: span returns a no-op. Spans nest on one goroutine
// (the benchmark's own), so a stack gives the parent.
type tracer struct {
	spans []span
	stack []int // indices into spans
}

var nop = func() {}

func (t *tracer) span(name string) (end func()) {
	if t == nil {
		return nop
	}
	s := span{ID: len(t.spans) + 1, Name: name, StartS: time.Since(processStart).Seconds()}
	if n := len(t.stack); n > 0 {
		s.Parent = t.spans[t.stack[n-1]].ID
	}
	idx := len(t.spans)
	t.spans = append(t.spans, s)
	t.stack = append(t.stack, idx)
	return func() {
		sp := &t.spans[idx]
		sp.EndS = time.Since(processStart).Seconds()
		d := sp.EndS - sp.StartS
		sp.SelfS = d - sp.children
		t.stack = t.stack[:len(t.stack)-1]
		if n := len(t.stack); n > 0 {
			t.spans[t.stack[n-1]].children += d
		}
	}
}

// write dumps the spans as JSONL.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	return f.Close()
}
