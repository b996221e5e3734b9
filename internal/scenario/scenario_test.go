package scenario

import (
	"fmt"
	"math"
	"testing"
	"time"

	"vcalab/internal/cascade"
	"vcalab/internal/netem"
	"vcalab/internal/sim"
	"vcalab/internal/vca"
)

// listResolver resolves every ref to a fixed link list (unit tests).
type listResolver struct{ links []*netem.Link }

func (r listResolver) ResolveLink(LinkRef) []*netem.Link { return r.links }

func TestTimelineAppliesInOrder(t *testing.T) {
	eng := sim.New(1)
	l := netem.NewLink(eng, "wire", netem.LinkConfig{RateBps: 8e6}, netem.HandlerFunc(func(p *netem.Packet) {}))
	sc := Scenario{Name: "t", Events: []Event{
		// Declared out of time order: the timeline must sort stably.
		ShapeLink(2*time.Second, LinkRef{}, Shape{SetRate: true, RateBps: 3e6}),
		ShapeLink(1*time.Second, LinkRef{}, Shape{SetRate: true, RateBps: 1e6}),
		// Same instant as the 2 s event: declaration order must hold, so
		// the 4 Mbps shape lands after the 3 Mbps one.
		ShapeLink(2*time.Second, LinkRef{}, Shape{SetRate: true, RateBps: 4e6}),
	}}
	tl := New(eng, nil, listResolver{[]*netem.Link{l}}, sc)
	tl.Start()
	eng.RunUntil(1500 * time.Millisecond)
	if got := l.Rate(); got != 1e6 {
		t.Errorf("rate after 1.5s = %v, want 1e6", got)
	}
	eng.RunUntil(3 * time.Second)
	if got := l.Rate(); got != 4e6 {
		t.Errorf("rate after 3s = %v, want 4e6 (same-instant declaration order)", got)
	}
	if !tl.Done() || tl.Applied() != 3 {
		t.Errorf("timeline done=%v applied=%d, want done with 3 applied", tl.Done(), tl.Applied())
	}
}

func TestTimelineShapeAspects(t *testing.T) {
	eng := sim.New(2)
	l := netem.NewLink(eng, "wire", netem.LinkConfig{RateBps: 10e6, Delay: 10 * time.Millisecond},
		netem.HandlerFunc(func(p *netem.Packet) {}))
	sc := Scenario{Name: "aspects", Events: []Event{
		ShapeLink(time.Second, LinkRef{}, Shape{SetDelay: true, Delay: 80 * time.Millisecond}),
		ShapeLink(2*time.Second, LinkRef{}, Shape{SetImpair: true, LossProb: 0.5, Jitter: 5 * time.Millisecond}),
		ShapeLink(3*time.Second, LinkRef{}, Shape{SetRate: true, RateBps: 1e6}),
		ShapeLink(5*time.Second, LinkRef{}, Shape{SetPaused: true, Paused: true}),
		ShapeLink(5500*time.Millisecond, LinkRef{}, Shape{SetPaused: true}),
	}}
	New(eng, nil, listResolver{[]*netem.Link{l}}, sc).Start()
	eng.RunUntil(4 * time.Second)
	if l.Paused() {
		t.Error("link paused before its pause event")
	}
	if l.Delay() != 80*time.Millisecond {
		t.Errorf("delay = %v, want 80ms", l.Delay())
	}
	if l.Rate() != 1e6 {
		t.Errorf("rate = %v, want 1e6", l.Rate())
	}
	// The rate change must have resized the queue to the default depth
	// for the new rate (the `tc` re-shape): 1 Mbps -> 200 ms -> 25 kB,
	// above the 5-MTU floor.
	if want := netem.DefaultQueueBytes(1e6); want != 25000 {
		t.Fatalf("test premise: DefaultQueueBytes(1e6) = %d", want)
	}
	if got := l.QueueBytes(); got != 25000 {
		t.Errorf("queue = %d B after the 1 Mbps re-shape, want 25000", got)
	}
	// A pause closes the serialization gate and the resume reopens it:
	// the pair is a half-second handover gap.
	eng.RunUntil(5200 * time.Millisecond)
	if !l.Paused() {
		t.Error("link not paused inside the pause/resume pair")
	}
	eng.RunUntil(6 * time.Second)
	if l.Paused() {
		t.Error("link still paused after its resume event")
	}
	if got := l.PausedTotal(); got != 500*time.Millisecond {
		t.Errorf("paused for %v, want the 500ms between pause and resume", got)
	}
}

// mesh2 builds a 2-region mesh with n participants round-robin.
func mesh2(eng *sim.Engine, n int, interMbps float64) *cascade.Mesh {
	assign := cascade.Assign(n, 2)
	return cascade.Build(eng, cascade.Topology{
		Regions: []cascade.Region{
			{Name: "r0", Clients: assign[0]},
			{Name: "r1", Clients: assign[1]},
		},
		Default: netem.LinkConfig{RateBps: interMbps * 1e6, Delay: 30 * time.Millisecond},
	})
}

func TestTimelinePreStartEventsThinRoster(t *testing.T) {
	eng := sim.New(3)
	mesh := mesh2(eng, 6, 20)
	call := mesh.NewCall(vca.Teams(), vca.CallOptions{Seed: 3})
	sc := Scenario{Name: "flash-crowd", Events: []Event{
		Leave(0, "c4"), Leave(0, "c5"), Leave(0, "c6"),
		Rejoin(10*time.Second, "c4"),
		Rejoin(11*time.Second, "c5"),
		Rejoin(12*time.Second, "c6"),
	}}
	tl := New(eng, call, MeshLinks(mesh), sc)
	tl.Start() // applies the t=0 leaves synchronously, before the call starts
	if call.Active("c4") || call.Active("c5") || call.Active("c6") {
		t.Fatal("pre-start leaves not applied before Call.Start")
	}
	call.Start()
	eng.RunUntil(20 * time.Second)
	call.Stop()
	for _, name := range []string{"c4", "c5", "c6"} {
		if !call.Active(name) {
			t.Errorf("%s not active after flash-crowd rejoin", name)
		}
	}
	if down := call.Clients[3].DownMeter.MeanRateMbps(15*time.Second, 20*time.Second); down <= 0 {
		t.Error("late joiner c4 receives no media")
	}
}

// TestChurnStormRegistryAcrossRegions is the scenario-driven churn-storm
// registry test: interleaved Leave/Rejoin waves across two regions with
// media in flight must keep the participant-ID space at its build-time
// density, never alias a recycled ID to another participant's state, and
// leave zero pooled engine events live once the simulation drains.
func TestChurnStormRegistryAcrossRegions(t *testing.T) {
	storm := func() (*sim.Engine, *vca.Call) {
		eng := sim.New(99)
		mesh := mesh2(eng, 8, 20)
		call := mesh.NewCall(vca.Meet(), vca.CallOptions{Seed: 99})
		tl := New(eng, call, MeshLinks(mesh), ChurnStorm(8))
		tl.Start()
		call.Start()
		eng.RunUntil(70 * time.Second)
		if !tl.Done() {
			t.Fatalf("churn storm not finished by 70s (applied %d)", tl.Applied())
		}
		call.Stop()
		return eng, call
	}

	eng, call := storm()
	if got, want := call.IDSpace(), 8+2; got != want {
		t.Errorf("ID space grew under churn storm: %d, want %d (8 clients + 2 SFUs)", got, want)
	}
	for i, cl := range call.Clients {
		name := fmt.Sprintf("c%d", i+1)
		if !call.Active(name) {
			t.Errorf("%s not active after storm", name)
		}
		seen := map[string]bool{}
		for _, origin := range cl.Origins() {
			if origin == "" {
				t.Fatalf("client %d holds a receiver bound to a freed ID", i)
			}
			if seen[origin] {
				t.Fatalf("client %d holds duplicate receivers for %q (recycled-ID aliasing)", i, origin)
			}
			seen[origin] = true
		}
	}
	if call.C1().DownMeter.MeanRateMbps(60*time.Second, 70*time.Second) <= 0 {
		t.Error("c1 receives nothing after the storm settles")
	}

	// Drain: with the call stopped, every in-flight packet and cancelled
	// ticker must come home — the pooled-event leak detector reads zero.
	eng.Run()
	if n := eng.Live(); n != 0 {
		t.Errorf("%d pooled engine events leaked after drain", n)
	}
	if n := eng.Pending(); n != 0 {
		t.Errorf("%d events still pending after drain", n)
	}

	// Determinism: the identical storm replays to identical byte counts.
	_, call2 := storm()
	for i := range call.Clients {
		b1 := call.Clients[i].DownMeter.TotalBytes()
		b2 := call2.Clients[i].DownMeter.TotalBytes()
		if b1 != b2 {
			t.Errorf("client %d bytes differ across identical storms: %v vs %v", i, b1, b2)
		}
	}
}

func TestCannedScenariosValidate(t *testing.T) {
	for _, name := range CannedNames() {
		sc, err := Canned(name, 12, 20e6)
		if err != nil {
			t.Fatalf("Canned(%s): %v", name, err)
		}
		if sc.Name != name {
			t.Errorf("Canned(%s) named %q", name, sc.Name)
		}
		if err := sc.Validate(); err != nil {
			t.Errorf("canned %s invalid: %v", name, err)
		}
		if len(sc.Events) == 0 {
			t.Errorf("canned %s has no events", name)
		}
		if len(sc.RecoveryPoints()) == 0 {
			t.Errorf("canned %s has no recovery points", name)
		}
	}
	if _, err := Canned("bogus", 12, 20e6); err == nil {
		t.Error("Canned(bogus) did not error")
	}
}

func TestScenarioValidate(t *testing.T) {
	pair := LinkRef{Kind: LinkInterPair, From: 0, To: 1}
	shape := func(sh Shape) []Event { return []Event{ShapeLink(time.Second, pair, sh)} }
	cases := []struct {
		name   string
		events []Event
		ok     bool
	}{
		{"unnamed churn target", []Event{{At: time.Second, Op: OpLeave}}, false},
		{"negative event time", []Event{Leave(-time.Second, "c2")}, false},
		{"negative rate", shape(Shape{SetRate: true, RateBps: -1}), false},
		{"NaN rate", shape(Shape{SetRate: true, RateBps: math.NaN()}), false},
		{"infinite rate", shape(Shape{SetRate: true, RateBps: math.Inf(1)}), false},
		{"negative delay", shape(Shape{SetDelay: true, Delay: -time.Millisecond}), false},
		{"negative loss", shape(Shape{SetImpair: true, LossProb: -0.1}), false},
		{"loss above 1", shape(Shape{SetImpair: true, LossProb: 1.5}), false},
		{"NaN loss", shape(Shape{SetImpair: true, LossProb: math.NaN()}), false},
		{"negative jitter", shape(Shape{SetImpair: true, Jitter: -time.Millisecond}), false},
		// An inter-region delay is a sharded run's lookahead: zero would
		// panic the shard group mid-call, so it is rejected up front, on
		// every inter-region kind; an access link may be instantaneous.
		{"zero inter-region delay", shape(Shape{SetDelay: true}), false},
		{"zero delay on one direction", []Event{ShapeLink(time.Second, LinkRef{Kind: LinkInter, To: 1}, Shape{SetDelay: true})}, false},
		{"zero delay on every inter link", []Event{ShapeLink(time.Second, LinkRef{Kind: LinkInterAll}, Shape{SetDelay: true})}, false},
		{"zero access delay", []Event{ShapeLink(time.Second, LinkRef{Kind: LinkClientUp, Client: "c2"}, Shape{SetDelay: true})}, true},
		// WiFiBursty(0.9, 1) asks for P = 9: the chain would flip state
		// every packet and lose 50%, not 90%.
		{"GE transition above 1", shape(Shape{SetModel: true, Model: LinkModelSpec{Kind: ModelGE, GE: netem.WiFiBursty(0.9, 1)}}), false},
		{"GE negative return", shape(Shape{SetModel: true, Model: LinkModelSpec{Kind: ModelGE, GE: netem.GEConfig{R: -0.5, LossBad: 1}}}), false},
		{"GE NaN good-state loss", shape(Shape{SetModel: true, Model: LinkModelSpec{Kind: ModelGE, GE: netem.GEConfig{P: 0.1, R: 0.5, LossGood: math.NaN(), LossBad: 1}}}), false},
		{"GE bad-state loss above 1", shape(Shape{SetModel: true, Model: LinkModelSpec{Kind: ModelGE, GE: netem.GEConfig{P: 0.1, R: 0.5, LossBad: 1.5}}}), false},
		{"GE at the feasible edge", shape(Shape{SetModel: true, Model: LinkModelSpec{Kind: ModelGE, GE: netem.WiFiBursty(0.5, 1)}}), true},
		{"negative bloat depth", shape(Shape{SetModel: true, Model: LinkModelSpec{Kind: ModelBloat, Bloat: netem.BloatConfig{Depth: -time.Second}}}), false},
		{"default bloat depth", shape(Shape{SetModel: true, Model: LinkModelSpec{Kind: ModelBloat}}), true},
		// An aspect's value only matters when its Set flag applies it.
		{"unset aspects ignored", shape(Shape{RateBps: -1, Delay: -1, LossProb: 2, Jitter: -1}), true},
		{"in range", shape(Shape{
			SetRate: true, RateBps: 0, SetDelay: true, Delay: time.Millisecond,
			SetImpair: true, LossProb: 1, Jitter: 5 * time.Millisecond,
			SetPaused: true, Paused: true,
		}), true},
	}
	for _, c := range cases {
		err := Scenario{Name: c.name, Events: c.events}.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("New did not panic on invalid scenario")
		}
	}()
	New(sim.New(1), nil, nil, Scenario{Name: "bad", Events: cases[0].events})
}

func TestTraceExpansion(t *testing.T) {
	ref := LinkRef{Kind: LinkClientUp, Client: "c1"}
	evs := Trace(ref, "lte", []TraceStep{{At: time.Second, RateBps: 1e6}, {At: 2 * time.Second, RateBps: 0}})
	if len(evs) != 2 {
		t.Fatalf("Trace produced %d events, want 2", len(evs))
	}
	for _, ev := range evs {
		if ev.Op != OpShape || !ev.Shape.SetRate || ev.Label != "lte" || ev.Ref != ref {
			t.Errorf("trace event malformed: %+v", ev)
		}
	}
	if evs[1].Shape.RateBps != 0 {
		t.Error("trace step to unconstrained lost its zero rate")
	}
}

// TestPartitionHealRecovers drives the region-partition scenario on a
// live Zoom call: during the partition cross-region media stops, after
// the heal it resumes.
func TestPartitionHealRecovers(t *testing.T) {
	eng := sim.New(7)
	mesh := mesh2(eng, 4, 20)
	call := mesh.NewCall(vca.Zoom(), vca.CallOptions{Seed: 7})
	New(eng, call, MeshLinks(mesh), RegionPartitionAndHeal(0, 1)).Start()
	call.Start()
	// c2 is homed in region 1; c1 in region 0. Partition runs 30s..45s:
	// cross-region media stops while the local region keeps flowing.
	eng.RunUntil(40 * time.Second)
	during := call.C1().DownMeter.MeanRateMbps(32*time.Second, 40*time.Second)
	full := call.C1().DownMeter.MeanRateMbps(20*time.Second, 28*time.Second)
	eng.RunUntil(75 * time.Second)
	call.Stop()
	if during >= full {
		t.Errorf("c1 download during partition (%.2f Mbps) not below pre-partition (%.2f)", during, full)
	}
	// The 15 s blackout surfaces as freeze time on c1's cross-region
	// receiver once media resumes (the gap is accounted at next display).
	if fr := call.C1().Receiver("c2").FreezeRatio(); fr < 0.05 {
		t.Errorf("c1's receiver for cross-region c2 shows freeze ratio %.3f, want >= 0.05 after a 15s partition", fr)
	}
	if cross := call.C1().DownMeter.MeanRateMbps(60*time.Second, 75*time.Second); cross <= 0 {
		t.Error("cross-region media never resumed after the heal")
	}
}
