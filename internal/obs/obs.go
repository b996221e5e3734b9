// Package obs is the observability substrate for the simulator: a
// fixed-capacity ring-buffer tracer for typed sim-time events and a
// sampled metrics registry (metrics.go). It is a leaf package — nothing
// here imports sim, netem or vca — so every layer of the stack can hold
// a *Tracer without an import cycle.
//
// The zero-overhead contract: a nil *Tracer is a valid tracer and the
// only off switch. Every producer (Packet, CC, Switch, Scenario,
// Recovery, Churn) returns on a nil receiver, inlines, and takes strings
// and ints its caller already holds, so call sites record unguarded and
// a disabled run pays a field load and a branch. TestProducersInline and
// TestNilTracer pin both halves. Tracing is
// read-only with respect to the simulation — recording an event must
// never mutate engine, link, or client state, and must never draw from
// a sim RNG — so enabling it cannot change experiment output.
package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"slices"
	"time"
)

// EventKind is the taxonomy of traced events. Packet kinds carry
// link/flow/size/queue fields; decision kinds carry old/new/reason.
type EventKind uint8

const (
	// EvEnqueue: a packet entered a link queue (it will wait for
	// service). Packets that start transmitting immediately skip this.
	EvEnqueue EventKind = iota
	// EvDequeue: a queued packet left the queue and began service.
	EvDequeue
	// EvDrop: a packet was discarded (tail overflow, loss model, or AQM
	// — the AQM flag distinguishes the last).
	EvDrop
	// EvDeliver: a packet arrived at its destination host.
	EvDeliver
	// EvCC: a congestion controller changed its target rate.
	EvCC
	// EvSwitch: an SFU forwarding decision changed (simulcast copy or
	// SVC layer cap).
	EvSwitch
	// EvScenario: a scenario timeline op was applied.
	EvScenario
	// EvChurn: a participant left, rejoined, or the call switched mode.
	EvChurn
	// EvNackSent: a receiver NACKed one missing seq (counted per seq per
	// retry, so Count(EvNackSent) >= Count(EvRTXDeliver) always holds).
	EvNackSent
	// EvNackAnswer: the SFU answered a NACKed seq from its RTX buffer.
	EvNackAnswer
	// EvNackGiveUp: the receiver stopped NACKing a seq (retries
	// exhausted); the seq is conceded lost.
	EvNackGiveUp
	// EvRTXDeliver: a retransmitted packet reached the receiver in time.
	EvRTXDeliver
	// EvJBLate: a packet arrived after its seq was already conceded or
	// delivered; the jitter buffer dropped it.
	EvJBLate
	// EvJBConcede: the jitter buffer gave up waiting for one or more seqs
	// (playout deadline passed or NACK gave up); Size carries the count.
	EvJBConcede

	evKinds
)

var kindNames = [evKinds]string{
	"enqueue", "dequeue", "drop", "deliver", "cc", "switch", "scenario", "churn",
	"nack-sent", "nack-answer", "nack-giveup", "rtx-deliver", "jb-late", "jb-concede",
}

// String returns the JSONL spelling of the kind ("drop", "cc", ...).
func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one traced record. A single flat struct covers all kinds so
// the ring buffer is one allocation; unused fields stay zero and are
// omitted from JSONL. String fields are assigned by header copy from
// interned names (link names, client names), so recording never
// allocates.
type Event struct {
	T    time.Duration
	Kind EventKind

	// Packet events.
	Link   string // link name
	Flow   string // flow label ("video:c3" etc.)
	Client string // destination host (packet) or acting client (decision)
	Size   int    // packet size, bytes
	Queue  int    // queue depth after the event, bytes
	AQM    bool   // drop was AQM-initiated

	// Decision events.
	Origin string  // remote party the decision is about (leg origin, CC peer)
	Old    float64 // previous value (bps for cc, layer/copy index for switch)
	New    float64 // new value
	Reason string  // reason code ("backoff-loss", "svc-layer", op name, ...)
	Label  string  // scenario event label / churn detail
}

// jsonEvent is the wire form; pointers/omitempty keep packet lines and
// decision lines each to their relevant fields.
type jsonEvent struct {
	TUs    int64    `json:"t_us"`
	Kind   string   `json:"kind"`
	Link   string   `json:"link,omitempty"`
	Flow   string   `json:"flow,omitempty"`
	Client string   `json:"client,omitempty"`
	Size   int      `json:"size,omitempty"`
	Queue  int      `json:"queue_bytes,omitempty"`
	AQM    bool     `json:"aqm,omitempty"`
	Origin string   `json:"origin,omitempty"`
	Old    *float64 `json:"old,omitempty"`
	New    *float64 `json:"new,omitempty"`
	Reason string   `json:"reason,omitempty"`
	Label  string   `json:"label,omitempty"`
}

func (e *Event) wire() jsonEvent {
	je := jsonEvent{
		TUs: e.T.Microseconds(), Kind: e.Kind.String(),
		Link: e.Link, Flow: e.Flow, Client: e.Client,
		Size: e.Size, Queue: e.Queue, AQM: e.AQM,
		Origin: e.Origin, Reason: e.Reason, Label: e.Label,
	}
	switch e.Kind {
	case EvCC, EvSwitch:
		old, nw := e.Old, e.New
		je.Old, je.New = &old, &nw
	}
	return je
}

// DefaultTraceCap is the ring capacity used when NewTracer gets a
// non-positive capacity: large enough to hold a full quick-mode trial's
// decision events plus a tail of packet events, small enough (~4 MB)
// to attach per trial without thought.
const DefaultTraceCap = 1 << 15

// Tracer is a fixed-capacity ring buffer of Events. When full, new
// events overwrite the oldest; cumulative per-kind counts survive the
// overwrite so conservation checks (e.g. traced drops vs link drop
// counters) stay exact even after wraparound. All methods are safe on a
// nil receiver (no-ops / zero answers). Not safe for concurrent use —
// one tracer per engine, like everything else in the sim.
type Tracer struct {
	buf    []Event
	next   int    // next slot to write
	total  uint64 // events ever recorded
	counts [evKinds]uint64
}

// NewTracer returns a tracer holding the last `capacity` events
// (DefaultTraceCap if capacity <= 0). The ring is allocated up front so
// recording never allocates.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &Tracer{buf: make([]Event, capacity)}
}

func (t *Tracer) slot(kind EventKind) *Event {
	e := &t.buf[t.next]
	t.next++
	if t.next == len(t.buf) {
		t.next = 0
	}
	t.total++
	t.counts[kind]++
	return e
}

// Packet records a packet lifecycle event (enqueue/dequeue/drop/deliver).
// queued is the link queue depth in bytes after the event.
func (t *Tracer) Packet(kind EventKind, now time.Duration, link, flow, client string, size, queued int, aqm bool) {
	if t == nil {
		return
	}
	*t.slot(kind) = Event{
		T: now, Kind: kind,
		Link: link, Flow: flow, Client: client,
		Size: size, Queue: queued, AQM: aqm,
	}
}

// CC records a congestion-controller target change on `client`'s
// controller for traffic from/to `origin` (empty for an uplink
// controller), with a derived reason code.
func (t *Tracer) CC(now time.Duration, client, origin, reason string, oldBps, newBps float64) {
	if t == nil {
		return
	}
	*t.slot(EvCC) = Event{
		T: now, Kind: EvCC,
		Client: client, Origin: origin, Reason: reason,
		Old: oldBps, New: newBps,
	}
}

// Switch records an SFU forwarding-selection change for the leg that
// receives `origin`'s media at `client`.
func (t *Tracer) Switch(now time.Duration, client, origin, reason string, old, new int) {
	if t == nil {
		return
	}
	*t.slot(EvSwitch) = Event{
		T: now, Kind: EvSwitch,
		Client: client, Origin: origin, Reason: reason,
		Old: float64(old), New: float64(new),
	}
}

// Scenario records an applied timeline op (reason = op name, label =
// the event's label, client = the target participant if any).
func (t *Tracer) Scenario(now time.Duration, label, op, client string) {
	if t == nil {
		return
	}
	*t.slot(EvScenario) = Event{
		T: now, Kind: EvScenario,
		Label: label, Reason: op, Client: client,
	}
}

// Recovery records a loss-recovery event: kind is one of EvNackSent,
// EvNackAnswer, EvNackGiveUp, EvRTXDeliver, EvJBLate, EvJBConcede;
// client is the receiver, origin the media source, n the seq (or, for
// EvJBConcede, the number of seqs conceded at once).
func (t *Tracer) Recovery(kind EventKind, now time.Duration, client, origin string, n int) {
	if t == nil {
		return
	}
	*t.slot(kind) = Event{
		T: now, Kind: kind,
		Client: client, Origin: origin, Size: n,
	}
}

// Churn records a membership/mode change ("leave", "rejoin", "mode").
func (t *Tracer) Churn(now time.Duration, client, what, detail string) {
	if t == nil {
		return
	}
	*t.slot(EvChurn) = Event{
		T: now, Kind: EvChurn,
		Client: client, Reason: what, Label: detail,
	}
}

// Total returns how many events were ever recorded, including ones the
// ring has since overwritten.
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	return t.total
}

// Len returns how many events are currently retained.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	if t.total >= uint64(len(t.buf)) {
		return len(t.buf)
	}
	return int(t.total)
}

// Dropped returns how many recorded events the ring has overwritten.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.total - uint64(t.Len())
}

// Count returns the cumulative number of events of one kind, unaffected
// by ring wraparound — this is what makes conservation cross-checks
// (traced drops == link drop counters) exact on long runs.
func (t *Tracer) Count(kind EventKind) uint64 {
	if t == nil || kind >= evKinds {
		return 0
	}
	return t.counts[kind]
}

// Events returns the retained events oldest-first, as a copy.
func (t *Tracer) Events() []Event {
	n := t.Len()
	if n == 0 {
		return nil
	}
	out := make([]Event, 0, n)
	start := 0
	if t.total >= uint64(len(t.buf)) {
		start = t.next // oldest retained is the one about to be overwritten
	}
	for i := 0; i < n; i++ {
		out = append(out, t.buf[(start+i)%len(t.buf)])
	}
	return out
}

// WriteJSONL writes the retained events oldest-first, one JSON object
// per line.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	_, err := t.writeJSONL(w, func(*Event) bool { return true })
	return err
}

// WriteLinksJSONL writes, oldest-first, every retained decision event and
// the packet events of the named links only, and reports how many lines
// it wrote: the timeline vcacall -trace lines up with its pcap of those
// links.
func (t *Tracer) WriteLinksJSONL(w io.Writer, links ...string) (int, error) {
	return t.writeJSONL(w, func(e *Event) bool {
		return e.Kind > EvDeliver || slices.Contains(links, e.Link)
	})
}

func (t *Tracer) writeJSONL(w io.Writer, keep func(*Event) bool) (int, error) {
	if t == nil {
		return 0, nil
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	n := t.Len()
	start := 0
	if t.total >= uint64(len(t.buf)) {
		start = t.next
	}
	lines := 0
	for i := 0; i < n; i++ {
		e := &t.buf[(start+i)%len(t.buf)]
		if !keep(e) {
			continue
		}
		if err := enc.Encode(e.wire()); err != nil {
			return lines, err
		}
		lines++
	}
	return lines, bw.Flush()
}
