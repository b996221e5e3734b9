package obs

import (
	"bytes"
	"encoding/json"
	"os/exec"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestTracerWraparound pins the ring-buffer contract: a full ring keeps
// the newest `cap` events, oldest-first on export, and Dropped counts
// exactly the overwritten ones.
func TestTracerWraparound(t *testing.T) {
	const capacity = 8
	tr := NewTracer(capacity)
	if len(tr.buf) != capacity {
		t.Fatalf("ring capacity = %d, want %d", len(tr.buf), capacity)
	}
	const n = 21 // 2.6 wraps
	for i := 0; i < n; i++ {
		tr.Packet(EvDeliver, time.Duration(i)*time.Millisecond, "up", "video:c1", "sfu", 1200, 0, false)
	}
	if got := tr.Total(); got != n {
		t.Errorf("Total = %d, want %d", got, n)
	}
	if got := tr.Len(); got != capacity {
		t.Errorf("Len = %d, want %d", got, capacity)
	}
	if got := tr.Dropped(); got != n-capacity {
		t.Errorf("Dropped = %d, want %d", got, n-capacity)
	}
	evs := tr.Events()
	if len(evs) != capacity {
		t.Fatalf("Events len = %d, want %d", len(evs), capacity)
	}
	for i, e := range evs {
		want := time.Duration(n-capacity+i) * time.Millisecond
		if e.T != want {
			t.Errorf("event %d: T = %v, want %v (oldest-first, newest retained)", i, e.T, want)
		}
	}
}

// TestTracerCountsSurviveOverflow is the property the fuzz harness's
// drop-conservation invariant rests on: per-kind counts are cumulative,
// not bounded by ring capacity.
func TestTracerCountsSurviveOverflow(t *testing.T) {
	tr := NewTracer(4)
	const drops, delivers = 13, 29
	for i := 0; i < drops; i++ {
		tr.Packet(EvDrop, 0, "up", "f", "h", 100, 0, i%2 == 0)
	}
	for i := 0; i < delivers; i++ {
		tr.Packet(EvDeliver, 0, "up", "f", "h", 100, 0, false)
	}
	if got := tr.Count(EvDrop); got != drops {
		t.Errorf("Count(EvDrop) = %d, want %d (must survive wraparound)", got, drops)
	}
	if got := tr.Count(EvDeliver); got != delivers {
		t.Errorf("Count(EvDeliver) = %d, want %d", got, delivers)
	}
	if got := tr.Count(EvCC); got != 0 {
		t.Errorf("Count(EvCC) = %d, want 0", got)
	}
}

// TestNilTracer pins the zero-overhead contract's API half: every
// method on a nil tracer is a safe no-op, and the six producers, which
// call sites invoke unguarded, allocate nothing.
func TestNilTracer(t *testing.T) {
	var tr *Tracer
	record := func() {
		tr.Packet(EvDrop, 0, "up", "f", "h", 1, 2, true)
		tr.CC(0, "c1", "", "increase", 1e6, 2e6)
		tr.Switch(0, "c1", "c2", "svc-layer", 2, 1)
		tr.Scenario(0, "cliff", "shape", "")
		tr.Recovery(EvNackAnswer, 0, "c1", "c2", 7)
		tr.Churn(0, "c3", "leave", "")
	}
	if n := testing.AllocsPerRun(100, record); n != 0 {
		t.Errorf("nil-tracer producers allocate %v times per call set, want 0", n)
	}
	if tr.Total() != 0 || tr.Len() != 0 || tr.Dropped() != 0 || tr.Count(EvDrop) != 0 {
		t.Error("nil tracer must report all zeros")
	}
	if err := tr.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Errorf("nil WriteJSONL: %v", err)
	}
}

// TestProducersInline pins the contract's cost half: every producer
// inlines, so an unguarded call on a nil tracer compiles to its nil test
// at the call site. Growing one past the compiler's inlining budget
// fails here.
func TestProducersInline(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the compiler")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go binary on PATH")
	}
	out, err := exec.Command(goBin, "build", "-gcflags=vcalab/internal/obs=-m", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, p := range []string{"Packet", "CC", "Switch", "Scenario", "Recovery", "Churn"} {
		if !regexp.MustCompile(`(?m)can inline \(\*Tracer\)\.` + p + `$`).Match(out) {
			t.Errorf("(*Tracer).%s does not inline", p)
		}
	}
}

// TestWriteJSONLShapes checks the wire schema: packet lines carry
// link/queue fields, decision lines carry old/new/reason, and zero
// fields are omitted.
func TestWriteJSONLShapes(t *testing.T) {
	tr := NewTracer(16)
	tr.Packet(EvDrop, 1500*time.Microsecond, "inter:eu->us", "video:c1", "c5", 1200, 34800, true)
	tr.CC(2*time.Millisecond, "c1", "", "backoff-loss", 2e6, 1.7e6)
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), buf.String())
	}
	var drop map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &drop); err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]any{
		"t_us": 1500.0, "kind": "drop", "link": "inter:eu->us",
		"flow": "video:c1", "client": "c5", "size": 1200.0,
		"queue_bytes": 34800.0, "aqm": true,
	} {
		if drop[k] != want {
			t.Errorf("drop line %s = %v, want %v", k, drop[k], want)
		}
	}
	if _, has := drop["old"]; has {
		t.Error("packet line must omit decision fields")
	}
	var cc map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &cc); err != nil {
		t.Fatal(err)
	}
	if cc["kind"] != "cc" || cc["reason"] != "backoff-loss" || cc["old"] != 2e6 || cc["new"] != 1.7e6 {
		t.Errorf("cc line wrong: %s", lines[1])
	}
	if _, has := cc["link"]; has {
		t.Error("decision line must omit packet fields")
	}
}

// TestWriteLinksJSONL checks the link filter keeps every decision event
// and the packet events of the named links only, and counts what it
// wrote.
func TestWriteLinksJSONL(t *testing.T) {
	tr := NewTracer(16)
	tr.Packet(EvEnqueue, 0, "up", "video:c1", "sfu", 900, 900, false) // named: keep
	tr.Packet(EvDeliver, 0, "down", "video:c2", "c1", 900, 0, false)  // named: keep
	tr.Packet(EvDeliver, 0, "rt-c2", "video:c1", "c2", 900, 0, false) // other link: skip
	tr.Switch(0, "c2", "c1", "sim-copy", 1, 0)                        // decision: keep
	tr.CC(0, "c4", "", "increase", 1e6, 1.2e6)                        // decision: keep
	tr.Recovery(EvNackSent, 0, "c2", "c1", 7)                         // decision: keep
	var buf bytes.Buffer
	n, err := tr.WriteLinksJSONL(&buf, "up", "down")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 || n != 5 {
		t.Fatalf("wrote %d lines, reported %d, want 5:\n%s", len(lines), n, buf.String())
	}
	if strings.Contains(buf.String(), "rt-c2") {
		t.Errorf("an unnamed link's packet event was written:\n%s", buf.String())
	}
}

// TestRegistrySample covers gauge ordering, histogram interval reset,
// and rolling-median persistence across samples.
func TestRegistrySample(t *testing.T) {
	reg := NewRegistry()
	x := 1.0
	reg.Gauge("a", func() float64 { return x })
	reg.Gauge("b", func() float64 { return 2 * x })
	h := reg.Histogram("lat")
	log := &MetricsLog{}

	h.Observe(10)
	h.Observe(20)
	h.Observe(30)
	reg.Sample(time.Second, log)

	x = 5
	reg.Sample(2*time.Second, log) // empty interval: no hist line

	h.Observe(100)
	reg.Sample(3*time.Second, log)

	if err := log.Err(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := log.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// sample1: a, b, hist; sample2: a, b; sample3: a, b, hist.
	if len(lines) != 8 {
		t.Fatalf("got %d lines, want 8:\n%s", len(lines), buf.String())
	}
	var g GaugeSample
	if err := json.Unmarshal([]byte(lines[0]), &g); err != nil {
		t.Fatal(err)
	}
	if g.Name != "a" || g.V != 1 || g.TUs != 1e6 || g.Kind != "gauge" {
		t.Errorf("first gauge line wrong: %s", lines[0])
	}
	var hs HistSample
	if err := json.Unmarshal([]byte(lines[2]), &hs); err != nil {
		t.Fatal(err)
	}
	if hs.Name != "lat" || hs.N != 3 || hs.Count != 3 || hs.P50 != 20 || hs.Max != 30 {
		t.Errorf("hist line 1 wrong: %s", lines[2])
	}
	if err := json.Unmarshal([]byte(lines[7]), &hs); err != nil {
		t.Fatal(err)
	}
	if hs.N != 1 || hs.Count != 4 || hs.Max != 100 {
		t.Errorf("hist line 2 wrong: %s", lines[7])
	}
	// Rolling median spans intervals: window holds {10,20,30,100}.
	if hs.RollMd != 25 {
		t.Errorf("rolling median = %v, want 25", hs.RollMd)
	}
}

// TestNilRegistry pins nil-safety of the metrics half.
func TestNilRegistry(t *testing.T) {
	var reg *Registry
	reg.Gauge("x", func() float64 { return 1 })
	h := reg.Histogram("y")
	h.Observe(1) // nil histogram
	reg.Sample(0, &MetricsLog{})
	var log *MetricsLog
	log.Append(1)
	if log.Len() != 0 || log.Err() != nil {
		t.Error("nil log must be inert")
	}
}
