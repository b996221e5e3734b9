// Package scenario is the dynamic-workload subsystem: a declarative,
// deterministic timeline of events scheduled against a running call.
//
// The IMC'21 paper measures the three VCAs under *changing* conditions —
// transient capacity drops, competing flows, participants joining — but a
// config-driven sweep can only express what its config struct anticipated.
// A Scenario instead is data: an ordered list of timestamped events
// (participant churn, per-link capacity/delay/loss re-shaping, mid-call
// layout reshapes), bound to a concrete call and topology at run time.
// Every experiment can compose with any scenario, and new workloads are
// new literals, not new code.
//
// # Mechanism
//
// A Timeline binds a Scenario to an engine, a call and a link resolver:
// MeshLinks for a cascade mesh, or the experiment package's Lab, where
// the §4 disruption is a two-step Trace on C1's access link.
// It is itself a sim.Handler: one pooled engine event is in flight at any
// moment, carrying the timeline to its next due instant, where it applies
// every event due at that time in declaration order and re-arms for the
// next. Scheduling therefore allocates nothing per event and adds exactly
// one engine event per distinct event time — byte-identical output at any
// trial parallelism follows from each trial owning its own engine, as
// everywhere else in vcalab (see DESIGN.md §9).
package scenario

import (
	"fmt"
	"math"
	"sort"
	"time"

	"vcalab/internal/netem"
	"vcalab/internal/sim"
	"vcalab/internal/vca"
)

// LinkKind selects how a link event's target resolves against the bound
// topology.
type LinkKind int

// Link target kinds.
const (
	// LinkClientUp / LinkClientDown target the named host's access link
	// (host→router, router→host).
	LinkClientUp LinkKind = iota
	LinkClientDown
	// LinkInter targets the directed inter-region link From→To.
	LinkInter
	// LinkInterPair targets both directions between regions From and To.
	LinkInterPair
	// LinkInterAll targets every directed inter-region link.
	LinkInterAll
)

// LinkRef names a link (or a set of links) declaratively; the Timeline's
// LinkResolver maps it to concrete netem links at apply time.
type LinkRef struct {
	Kind   LinkKind
	Client string // LinkClientUp / LinkClientDown: host name
	From   int    // LinkInter / LinkInterPair: region indices
	To     int
}

// Shape is one link reconfiguration. Each Set* flag gates its fields, so
// "set rate to unconstrained (0)" and "leave the rate alone" are both
// expressible; unset aspects keep their current values.
type Shape struct {
	SetRate bool
	RateBps float64 // 0 removes the constraint

	SetDelay bool
	Delay    time.Duration

	SetImpair bool
	LossProb  float64 // 1 severs the link (partition)
	Jitter    time.Duration

	// SetPaused closes (Paused) or reopens the serialization gate: a
	// cellular handover gap is a pause/resume pair.
	SetPaused bool
	Paused    bool

	// SetModel installs (or clears) a heterogeneous last-mile link model.
	SetModel bool
	Model    LinkModelSpec
}

// LinkModelKind selects which last-mile model a LinkModelSpec installs.
type LinkModelKind int

// Link-model kinds.
const (
	// ModelNone clears any installed loss model and AQM.
	ModelNone LinkModelKind = iota
	// ModelGE installs a Gilbert–Elliott bursty-loss chain (WiFi).
	ModelGE
	// ModelBloat deepens the drop-tail queue, optionally with CoDel AQM.
	ModelBloat
)

// LinkModelSpec is the declarative form of a link model: pure data, bound
// to concrete netem machinery only when the timeline applies it. Seed
// feeds the model's private random source; when one event resolves to
// several links, each gets Seed offset by its resolution index so parallel
// last miles decorrelate.
type LinkModelSpec struct {
	Kind  LinkModelKind
	Seed  int64
	GE    netem.GEConfig
	Bloat netem.BloatConfig
}

// Op is the action an Event performs.
type Op int

// Event operations.
const (
	// OpLeave / OpRejoin churn the named participant (the call's roster
	// is fixed at build; churn toggles membership, as production calls
	// admit from a known tenant set).
	OpLeave Op = iota
	OpRejoin
	// OpMode switches the call's viewing modality (gallery ↔ speaker).
	OpMode
	// OpShape reconfigures the links Ref resolves to.
	OpShape
)

// Event is one timeline entry. Build events with the Leave, Rejoin, Mode
// and ShapeLink constructors; the fields are exported so canned scenarios
// remain plain data.
type Event struct {
	At    time.Duration
	Op    Op
	Label string // optional: names the event in reports
	// Recover marks an event whose aftermath the dynamic experiment
	// measures: time until the instrumented client's download rate
	// returns to its pre-event nominal (the paper's §4 TTR metric).
	Recover bool

	Who   string       // OpLeave / OpRejoin
	Mode  vca.ViewMode // OpMode
	Ref   LinkRef      // OpShape
	Shape Shape        // OpShape
}

// Leave returns a participant-leave event.
func Leave(at time.Duration, who string) Event {
	return Event{At: at, Op: OpLeave, Who: who}
}

// Rejoin returns a participant-rejoin event.
func Rejoin(at time.Duration, who string) Event {
	return Event{At: at, Op: OpRejoin, Who: who}
}

// Mode returns a viewing-modality switch event.
func Mode(at time.Duration, m vca.ViewMode) Event {
	return Event{At: at, Op: OpMode, Mode: m}
}

// ShapeLink returns a link re-shaping event.
func ShapeLink(at time.Duration, ref LinkRef, sh Shape) Event {
	return Event{At: at, Op: OpShape, Ref: ref, Shape: sh}
}

// ModelLink returns an event installing (or, with ModelNone, clearing) a
// last-mile link model on the links ref resolves to.
func ModelLink(at time.Duration, ref LinkRef, spec LinkModelSpec) Event {
	return Event{At: at, Op: OpShape, Ref: ref, Shape: Shape{SetModel: true, Model: spec}}
}

// TraceStep is one segment of a capacity trace on any link of the
// topology: the §4 disruption is the two-step case, TraceReplay a
// drive-style one.
type TraceStep struct {
	At      time.Duration
	RateBps float64 // 0 = unconstrained
}

// Trace expands a capacity trace into shape events against one link ref.
// The label is applied to every step (reports show "label@t").
func Trace(ref LinkRef, label string, steps []TraceStep) []Event {
	events := make([]Event, 0, len(steps))
	for _, st := range steps {
		ev := ShapeLink(st.At, ref, Shape{SetRate: true, RateBps: st.RateBps})
		ev.Label = label
		events = append(events, ev)
	}
	return events
}

// Scenario is a named, ordered event timeline. Scenarios are pure data:
// they reference participants by host name and links by LinkRef, so one
// scenario replays against any topology that can resolve them.
type Scenario struct {
	Name   string
	Events []Event
}

// Validate reports the first structurally invalid event (a churn op with
// no participant name, a negative timestamp, a shape aspect out of range).
// An inter-region link's delay must stay positive: it is the lookahead a
// region-sharded run synchronizes on.
func (sc Scenario) Validate() error {
	for i, ev := range sc.Events {
		if ev.At < 0 {
			return fmt.Errorf("scenario %s: event %d at negative time %v", sc.Name, i, ev.At)
		}
		if (ev.Op == OpLeave || ev.Op == OpRejoin) && ev.Who == "" {
			return fmt.Errorf("scenario %s: event %d churns an unnamed participant", sc.Name, i)
		}
		if ev.Op != OpShape {
			continue
		}
		// The negated comparisons reject NaN too.
		sh, m := ev.Shape, ev.Shape.Model
		switch {
		case sh.SetRate && !(sh.RateBps >= 0 && sh.RateBps <= math.MaxFloat64):
			return fmt.Errorf("scenario %s: event %d sets rate %v bps, want finite and >= 0", sc.Name, i, sh.RateBps)
		case sh.SetDelay && sh.Delay < 0:
			return fmt.Errorf("scenario %s: event %d sets negative delay %v", sc.Name, i, sh.Delay)
		case sh.SetDelay && sh.Delay == 0 && ev.Ref.Kind >= LinkInter:
			return fmt.Errorf("scenario %s: event %d sets zero inter-region delay", sc.Name, i)
		case sh.SetImpair && !(sh.LossProb >= 0 && sh.LossProb <= 1):
			return fmt.Errorf("scenario %s: event %d sets loss %v outside [0, 1]", sc.Name, i, sh.LossProb)
		case sh.SetImpair && sh.Jitter < 0:
			return fmt.Errorf("scenario %s: event %d sets negative jitter %v", sc.Name, i, sh.Jitter)
		case sh.SetModel && (m.Kind < ModelNone || m.Kind > ModelBloat):
			return fmt.Errorf("scenario %s: event %d has unknown link-model kind %d", sc.Name, i, m.Kind)
		}
	}
	return nil
}

// RecoveryPoints lists the events marked Recover, in timeline order —
// the measurement schedule the dynamic experiment reports against.
func (sc Scenario) RecoveryPoints() []Event {
	var out []Event
	for _, ev := range sc.Events {
		if ev.Recover {
			out = append(out, ev)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// LinkResolver maps a declarative LinkRef to the concrete links it names
// in one built topology: MeshLinks for a cascade mesh, the experiment
// package's Lab for the paper's testbed. Resolution happens at
// event-apply cadence (cold path); returning nil or an empty slice makes
// the event a no-op, so a scenario written for a 3-region mesh degrades
// gracefully on a smaller one, or on the Lab, which has no inter-region
// links.
type LinkResolver interface {
	ResolveLink(ref LinkRef) []*netem.Link
}

// Timeline is a Scenario bound to a running engine, call and topology.
// Create one with New, then Start it; the timeline drives itself through
// pooled engine events from there.
type Timeline struct {
	eng     *sim.Engine
	call    *vca.Call
	links   LinkResolver
	events  []Event // stably sorted by At
	next    int
	applied int
	started bool
	scratch []*netem.Link // reused per shape event; no per-event allocs
}

// opName returns the JSONL spelling of a timeline op.
func opName(op Op) string {
	switch op {
	case OpLeave:
		return "leave"
	case OpRejoin:
		return "rejoin"
	case OpMode:
		return "mode"
	case OpShape:
		return "shape"
	}
	return "unknown"
}

// New binds a scenario to an engine, call and link resolver. The event
// list is copied and stably sorted by time, so same-instant events apply
// in declaration order. It panics on an invalid scenario — a scenario is
// static data, so this is always a construction bug.
func New(eng *sim.Engine, call *vca.Call, links LinkResolver, sc Scenario) *Timeline {
	if err := sc.Validate(); err != nil {
		panic("scenario: " + err.Error())
	}
	t := &Timeline{eng: eng, call: call, links: links}
	t.events = append(t.events, sc.Events...)
	sort.SliceStable(t.events, func(i, j int) bool { return t.events[i].At < t.events[j].At })
	return t
}

// Start applies every event due at or before the current virtual time
// synchronously — a scenario whose timeline begins at 0 can thin the
// roster before Call.Start, which is how flash-crowd scenarios begin
// small — then schedules the remainder through the engine. Start is
// idempotent.
func (t *Timeline) Start() {
	if t.started {
		return
	}
	t.started = true
	t.run(t.eng.Now())
}

// OnEvent implements sim.Handler: the timeline reached its next due
// instant. Do not call it directly.
func (t *Timeline) OnEvent(now time.Duration) { t.run(now) }

func (t *Timeline) run(now time.Duration) {
	for t.next < len(t.events) && t.events[t.next].At <= now {
		t.apply(&t.events[t.next])
		t.next++
		t.applied++
	}
	if t.next < len(t.events) {
		t.eng.AtHandler(t.events[t.next].At, t)
	}
}

// Applied reports how many events have been applied so far.
func (t *Timeline) Applied() int { return t.applied }

// Done reports whether every event has been applied.
func (t *Timeline) Done() bool { return t.next >= len(t.events) }

func (t *Timeline) apply(ev *Event) {
	t.eng.Tracer().Scenario(t.eng.Now(), ev.Label, opName(ev.Op), ev.Who)
	switch ev.Op {
	case OpLeave:
		t.call.Leave(ev.Who)
	case OpRejoin:
		t.call.Rejoin(ev.Who)
	case OpMode:
		t.call.SetMode(ev.Mode)
	case OpShape:
		t.scratch = t.scratch[:0]
		if t.links != nil {
			t.scratch = append(t.scratch, t.links.ResolveLink(ev.Ref)...)
		}
		for i, l := range t.scratch {
			t.applyShape(l, ev.Shape, i)
		}
	}
}

// applyShape reconfigures one link. A rate change is the `tc` re-shape,
// written only here: the new rate, and the drop-tail queue resized to the
// default depth for a positive one. idx is the link's position within the
// event's resolution, used to decorrelate per-link model seeds. In a
// sharded run this executes at a barrier, with the link's shard parked
// and its clock at now, so a resume may schedule on the link's engine.
func (t *Timeline) applyShape(l *netem.Link, sh Shape, idx int) {
	if sh.SetRate {
		l.SetRate(sh.RateBps)
		if sh.RateBps > 0 {
			l.SetQueueBytes(netem.DefaultQueueBytes(sh.RateBps))
		}
	}
	if sh.SetDelay {
		l.SetDelay(sh.Delay)
	}
	if sh.SetImpair {
		l.SetImpairment(sh.LossProb, sh.Jitter)
	}
	if sh.SetPaused {
		l.SetPaused(sh.Paused)
	}
	if sh.SetModel {
		t.applyModel(l, sh.Model, idx)
	}
}

// applyModel binds a declarative link-model spec to one concrete link.
func (t *Timeline) applyModel(l *netem.Link, spec LinkModelSpec, idx int) {
	seed := spec.Seed + int64(idx)
	switch spec.Kind {
	case ModelNone:
		l.SetLossModel(nil)
		l.SetAQM(nil)
	case ModelGE:
		l.SetLossModel(netem.NewGilbertElliott(seed, spec.GE))
	case ModelBloat:
		netem.ApplyBloat(l, spec.Bloat)
	}
}
