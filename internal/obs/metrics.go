package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"time"

	"vcalab/internal/stats"
)

// Registry is a named-metric registry sampled on a tick loop. Gauges
// are read on every Sample call (registration order, so output is
// deterministic); histograms accumulate observations between samples
// and emit per-interval percentiles plus a rolling median. Like the
// tracer, sampling is read-only with respect to the simulation: gauge
// functions must only read state.
type Registry struct {
	gauges []gauge
	hists  []*Histogram
}

type gauge struct {
	name string
	fn   func() float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Gauge registers a named instantaneous reading, polled at each Sample.
func (r *Registry) Gauge(name string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.gauges = append(r.gauges, gauge{name, fn})
}

// Histogram registers and returns a named distribution; feed it with
// Observe between samples. Safe to call Observe on a nil *Histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	h := &Histogram{name: name}
	r.hists = append(r.hists, h)
	return h
}

// histWindow is the rolling-median window: recent enough to track a
// shifting distribution, long enough to smooth per-interval noise.
const histWindow = 256

// Histogram accumulates float observations. Per-interval values reset
// at each Sample; the last histWindow observations, whose median Sample
// reports as the rolling median, and the cumulative count persist.
type Histogram struct {
	name  string
	vals  []float64 // this interval's observations
	ring  []float64 // the last histWindow observations
	next  int       // the oldest, once the ring is full
	count uint64    // cumulative observations
}

// Observe records one value. Nil-safe no-op.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.vals = append(h.vals, v)
	h.count++
	if len(h.ring) < histWindow {
		h.ring = append(h.ring, v)
	} else {
		h.ring[h.next] = v
		h.next = (h.next + 1) % histWindow
	}
}

// GaugeSample is one gauge reading on the metrics stream.
type GaugeSample struct {
	TUs  int64   `json:"t_us"`
	Kind string  `json:"kind"` // "gauge"
	Name string  `json:"name"`
	V    float64 `json:"v"`
}

// HistSample is one histogram interval on the metrics stream.
type HistSample struct {
	TUs    int64   `json:"t_us"`
	Kind   string  `json:"kind"` // "hist"
	Name   string  `json:"name"`
	N      int     `json:"n"`     // observations this interval
	Count  uint64  `json:"count"` // cumulative observations
	P50    float64 `json:"p50"`
	P90    float64 `json:"p90"`
	P99    float64 `json:"p99"`
	Max    float64 `json:"max"`
	RollMd float64 `json:"rolling_median"`
}

// Sample polls every gauge and flushes every histogram interval into
// the log, one JSONL line per metric, in registration order.
func (r *Registry) Sample(now time.Duration, log *MetricsLog) {
	if r == nil || log == nil {
		return
	}
	tus := now.Microseconds()
	for _, g := range r.gauges {
		log.Append(GaugeSample{TUs: tus, Kind: "gauge", Name: g.name, V: g.fn()})
	}
	for _, h := range r.hists {
		if len(h.vals) == 0 {
			continue
		}
		pcts := stats.SortedPercentiles(h.vals, 50, 90, 99)
		max := h.vals[0]
		for _, v := range h.vals[1:] {
			if v > max {
				max = v
			}
		}
		log.Append(HistSample{
			TUs: tus, Kind: "hist", Name: h.name,
			N: len(h.vals), Count: h.count,
			P50: pcts[0], P90: pcts[1], P99: pcts[2], Max: max,
			RollMd: stats.Median(h.ring),
		})
		h.vals = h.vals[:0]
	}
}

// MetricsLog buffers marshalled JSONL lines in memory so a parallel
// sweep can capture per-trial and flush in trial order afterwards —
// keeping the metrics file itself byte-identical at any -parallel.
type MetricsLog struct {
	lines []json.RawMessage
	err   error
}

// Append marshals v onto the log as one line. The first marshal error
// sticks and is reported by Err.
func (m *MetricsLog) Append(v any) {
	if m == nil {
		return
	}
	b, err := json.Marshal(v)
	if err != nil {
		if m.err == nil {
			m.err = err
		}
		return
	}
	m.lines = append(m.lines, b)
}

// Len returns the number of buffered lines.
func (m *MetricsLog) Len() int {
	if m == nil {
		return 0
	}
	return len(m.lines)
}

// Err returns the first Append marshal error, if any.
func (m *MetricsLog) Err() error {
	if m == nil {
		return nil
	}
	return m.err
}

// WriteTo flushes the buffered lines, newline-terminated, in order.
func (m *MetricsLog) WriteTo(w io.Writer) (int64, error) {
	if m == nil {
		return 0, nil
	}
	bw := bufio.NewWriter(w)
	var n int64
	for _, line := range m.lines {
		k, err := bw.Write(line)
		n += int64(k)
		if err != nil {
			return n, err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return n, err
		}
		n++
	}
	return n, bw.Flush()
}
