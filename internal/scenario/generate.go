package scenario

import (
	"fmt"
	"math/rand"
	"time"

	"vcalab/internal/netem"
	"vcalab/internal/runner"
	"vcalab/internal/vca"
)

// The seeded scenario generator: turns the five canned timelines into an
// unbounded scenario space. Generate(seed, cfg) composes a random number
// of disturbance "motifs" — churn bursts, capacity dips, region
// partitions, modality flips, and the heterogeneous last-mile link models
// (WiFi bursty loss, cellular traces with handover gaps, bufferbloat with
// and without AQM) — into one valid, fully seed-deterministic Scenario.
//
// Validity guarantees the invariant harness relies on:
//
//   - every event lands in [genStart, cfg.Dur - 2s], so a timeline bound
//     to a call running for cfg.Dur always finishes;
//   - c1 (the instrumented client) is never churned;
//   - per participant, leaves and rejoins strictly alternate, and every
//     leave has a rejoin before the end;
//   - every partition is healed and every cellular handover resumed by
//     its episode's end, so the engine always drains;
//   - at least one restore-style event is marked Recover.

// GenConfig bounds the generated scenario space. The zero value selects
// the harness defaults; the topology fields must match the call the
// scenario will replay against.
type GenConfig struct {
	// Participants is the roster size ("c1".."cN"; default 8).
	Participants int
	// Regions is the number of SFU sites (default 2).
	Regions int
	// InterBps is the nominal inter-region capacity the restore events
	// return to (default 10e6).
	InterBps float64
	// Dur is the call duration the scenario must fit inside (default 60s).
	Dur time.Duration
}

const (
	// genStart is the earliest event time, past the experiment warmup so
	// recovery nominals see steady state.
	genStart = 10 * time.Second
	// minMotifs/maxMotifs bound how many disturbance motifs are composed.
	minMotifs, maxMotifs = 3, 6
)

func (c *GenConfig) defaults() {
	if c.Participants == 0 {
		c.Participants = 8
	}
	if c.Regions == 0 {
		c.Regions = 2
	}
	if c.InterBps == 0 {
		c.InterBps = 10e6
	}
	if c.Dur == 0 {
		c.Dur = 60 * time.Second
	}
}

// generator carries the composition state: the RNG, the config, the
// events built so far, and the per-participant churn bookkeeping.
type generator struct {
	rng *rand.Rand
	cfg GenConfig
	sc  Scenario
	// free[i] is the earliest time participant ci may be churned again
	// (1-indexed; free[1] is pinned to "never" — c1 stays).
	free []time.Duration
	// restores indexes restore-style events eligible for a Recover mark.
	restores []int
	marked   bool
}

// Generate composes a pseudo-random, seed-deterministic scenario. Equal
// (seed, cfg) always yield the identical event list; the generator draws
// from its own source, never the engine's.
func Generate(seed int64, cfg GenConfig) Scenario {
	cfg.defaults()
	g := &generator{
		// runner.Seed is the splitmix64 mixer: sequential seeds map to
		// decorrelated streams, so -fuzz can walk seed, seed+1, ...
		rng:  rand.New(rand.NewSource(runner.Seed(seed, 0))),
		cfg:  cfg,
		sc:   Scenario{Name: fmt.Sprintf("gen-%d", seed)},
		free: make([]time.Duration, cfg.Participants+1),
	}
	g.free[1] = cfg.Dur + time.Hour // c1 is never churned

	motifs := minMotifs + g.rng.Intn(maxMotifs-minMotifs+1)
	for i := 0; i < motifs; i++ {
		switch g.rng.Intn(7) {
		case 0:
			g.churnBurst()
		case 1:
			g.dipRestore()
		case 2:
			g.partitionHeal()
		case 3:
			g.modeFlip()
		case 4:
			g.wifiBurst()
		case 5:
			g.cellularEpisode()
		case 6:
			g.bloatEpisode()
		}
	}
	// The dynamic experiment measures recovery points; guarantee one.
	if !g.marked && len(g.restores) > 0 {
		g.sc.Events[g.restores[len(g.restores)-1]].Recover = true
	}
	return g.sc
}

// window picks a motif start time leaving room for span before the
// scenario's end margin.
func (g *generator) window(span time.Duration) time.Duration {
	end := g.cfg.Dur - 2*time.Second - span
	if end <= genStart {
		return genStart
	}
	return genStart + time.Duration(g.rng.Int63n(int64(end-genStart)))
}

// dur draws a duration uniformly in [lo, hi).
func (g *generator) dur(lo, hi time.Duration) time.Duration {
	if hi <= lo {
		return lo
	}
	return lo + time.Duration(g.rng.Int63n(int64(hi-lo)))
}

// fit clamps a motif span so its last event — at t0+span+extra even when
// window collapses t0 to genStart — still lands inside [genStart, Dur-2s].
// Without the clamp a long motif overflows a short call (window only
// clamps the start, not the end). Clamping after the draw keeps the RNG
// stream, and so every other motif, identical across call durations.
func (g *generator) fit(span, extra time.Duration) time.Duration {
	room := g.cfg.Dur - 2*time.Second - genStart - extra
	if span > room {
		span = room
	}
	if span < 0 {
		span = 0
	}
	return span
}

// add appends ev; restore marks it Recover-eligible (with a coin flip
// deciding an immediate mark).
func (g *generator) add(ev Event, restore bool) {
	g.sc.Events = append(g.sc.Events, ev)
	if restore {
		g.restores = append(g.restores, len(g.sc.Events)-1)
		if g.rng.Intn(3) == 0 {
			g.sc.Events[len(g.sc.Events)-1].Recover = true
			g.marked = true
		}
	}
}

// clientRef draws a shaped-side reference to a random participant's
// access link (c1 included: shaping the instrumented client is exactly
// the paper's workload).
func (g *generator) clientRef(up bool) (LinkRef, string) {
	who := fmt.Sprintf("c%d", 1+g.rng.Intn(g.cfg.Participants))
	kind := LinkClientDown
	if up {
		kind = LinkClientUp
	}
	return LinkRef{Kind: kind, Client: who}, who
}

// churnBurst staggers 1-3 leaves and rejoins them a few seconds later,
// honoring per-participant alternation.
func (g *generator) churnBurst() {
	if g.cfg.Participants < 2 {
		g.dipRestore() // nobody but c1 to churn
		return
	}
	span := g.fit(g.dur(4*time.Second, 9*time.Second), time.Second)
	t0 := g.window(span + time.Second)
	want := 1 + g.rng.Intn(3)
	start := 2 + g.rng.Intn(g.cfg.Participants) // rotate who churns
	var picked []int
	for i := 0; i < g.cfg.Participants && len(picked) < want; i++ {
		p := 2 + (start+i-2)%(g.cfg.Participants-1)
		if g.free[p] <= t0 {
			picked = append(picked, p)
		}
	}
	for k, p := range picked {
		off := time.Duration(k) * 250 * time.Millisecond
		who := fmt.Sprintf("c%d", p)
		g.add(Leave(t0+off, who), false)
		rj := Rejoin(t0+span+off, who)
		if k == len(picked)-1 {
			rj.Label = "churn-rejoined"
		}
		g.add(rj, k == len(picked)-1)
		g.free[p] = t0 + span + off + time.Second
	}
}

// dipRestore drops one link set's capacity and restores it.
func (g *generator) dipRestore() {
	span := g.fit(g.dur(4*time.Second, 10*time.Second), 0)
	t0 := g.window(span)
	var ref LinkRef
	var dip, restore float64
	if g.cfg.Regions > 1 && g.rng.Intn(3) == 0 {
		ref = LinkRef{Kind: LinkInterAll}
		dip = g.cfg.InterBps * (0.1 + 0.3*g.rng.Float64())
		restore = g.cfg.InterBps
	} else {
		ref, _ = g.clientRef(g.rng.Intn(2) == 0)
		dip = 0.3e6 + 1.7e6*g.rng.Float64()
		restore = 0 // back to unconstrained
	}
	ev := ShapeLink(t0, ref, Shape{SetRate: true, RateBps: dip})
	ev.Label = "dip"
	g.add(ev, false)
	rs := ShapeLink(t0+span, ref, Shape{SetRate: true, RateBps: restore})
	rs.Label = "dip-restored"
	g.add(rs, true)
}

// partitionHeal severs a random region pair and heals it.
func (g *generator) partitionHeal() {
	if g.cfg.Regions < 2 {
		g.dipRestore()
		return
	}
	span := g.fit(g.dur(3*time.Second, 8*time.Second), 0)
	t0 := g.window(span)
	a := g.rng.Intn(g.cfg.Regions)
	b := (a + 1 + g.rng.Intn(g.cfg.Regions-1)) % g.cfg.Regions
	ref := LinkRef{Kind: LinkInterPair, From: a, To: b}
	cut := ShapeLink(t0, ref, Shape{SetImpair: true, LossProb: 1})
	cut.Label = fmt.Sprintf("partition-r%d-r%d", a, b)
	g.add(cut, false)
	heal := ShapeLink(t0+span, ref, Shape{SetImpair: true, LossProb: 0})
	heal.Label = "healed"
	g.add(heal, true)
}

// modeFlip pins the speaker and returns to gallery.
func (g *generator) modeFlip() {
	span := g.fit(g.dur(4*time.Second, 10*time.Second), 0)
	t0 := g.window(span)
	pin := Mode(t0, vca.Speaker)
	pin.Label = "speaker-pinned"
	g.add(pin, false)
	unpin := Mode(t0+span, vca.Gallery)
	unpin.Label = "gallery-restored"
	g.add(unpin, true)
}

// wifiBurst installs a Gilbert–Elliott loss chain on one access link for
// a few seconds, then clears it.
func (g *generator) wifiBurst() {
	span := g.fit(g.dur(5*time.Second, 12*time.Second), 0)
	t0 := g.window(span)
	ref, _ := g.clientRef(g.rng.Intn(2) == 0)
	spec := LinkModelSpec{
		Kind: ModelGE,
		Seed: g.rng.Int63(),
		GE:   netem.WiFiBursty(0.02+0.08*g.rng.Float64(), 2+6*g.rng.Float64()),
	}
	ev := ModelLink(t0, ref, spec)
	ev.Label = "wifi"
	g.add(ev, false)
	clear := ModelLink(t0+span, ref, LinkModelSpec{Kind: ModelNone})
	clear.Label = "wifi-cleared"
	g.add(clear, true)
}

// cellularEpisode rides one client's uplink through a stepped capacity
// trace with handover gaps, then restores the link to unconstrained. The
// steps are a Trace; each gap is a pause/resume pair whose instants jitter
// from the episode's own seeded source, and every gap resumes by the
// episode's end, so the link is never left paused.
func (g *generator) cellularEpisode() {
	steps := 3 + g.rng.Intn(3)
	spacing := g.dur(2*time.Second, 5*time.Second)
	// Clamping the span only trims the trace on short calls: steps at or
	// past the episode's end are not emitted.
	span := g.fit(time.Duration(steps)*spacing, time.Second)
	t0 := g.window(span + time.Second)
	end := t0 + span
	every := g.dur(6*time.Second, 12*time.Second)
	gap := g.dur(300*time.Millisecond, 1200*time.Millisecond)
	var trace []TraceStep
	for s := 0; s < steps; s++ {
		at := t0 + time.Duration(s)*spacing
		bps := 0.4e6 + 3.6e6*g.rng.Float64()
		if at < end {
			trace = append(trace, TraceStep{At: at, RateBps: bps})
		}
	}
	ref, _ := g.clientRef(true)
	for _, ev := range Trace(ref, "cellular", trace) {
		g.add(ev, false)
	}
	// The handover count varies with the jitter, so the jitter has its own
	// source: the generator's stream, and every later motif, stay put.
	hr := rand.New(rand.NewSource(runner.Seed(g.rng.Int63(), 0)))
	interval := func() time.Duration { return every + time.Duration(hr.Float64()*float64(2*time.Second)) }
	for at := t0 + interval(); at < end; at += gap + interval() {
		pause := ShapeLink(at, ref, Shape{SetPaused: true, Paused: true})
		pause.Label = "handover"
		g.add(pause, false)
		resume := ShapeLink(min(at+gap, end), ref, Shape{SetPaused: true})
		resume.Label = "handover-resumed"
		g.add(resume, false)
	}
	rs := ShapeLink(end+time.Second, ref, Shape{SetRate: true, RateBps: 0})
	rs.Label = "cell-restored"
	g.add(rs, true)
}

// bloatEpisode rate-limits one access link with a deep buffer (CoDel on a
// coin flip), then restores it.
func (g *generator) bloatEpisode() {
	span := g.fit(g.dur(6*time.Second, 12*time.Second), 0)
	t0 := g.window(span)
	ref, _ := g.clientRef(g.rng.Intn(2) == 0)
	sh := Shape{
		SetRate: true, RateBps: 0.8e6 + 1.7e6*g.rng.Float64(),
		SetModel: true, Model: LinkModelSpec{
			Kind: ModelBloat,
			Bloat: netem.BloatConfig{
				Depth: g.dur(time.Second, 3*time.Second),
				AQM:   g.rng.Intn(2) == 0,
			},
		},
	}
	ev := ShapeLink(t0, ref, sh)
	ev.Label = "bloat"
	if sh.Model.Bloat.AQM {
		ev.Label = "bloat-codel"
	}
	g.add(ev, false)
	rs := ShapeLink(t0+span, ref, Shape{
		SetRate: true, RateBps: 0,
		SetModel: true, Model: LinkModelSpec{Kind: ModelNone},
	})
	rs.Label = "bloat-cleared"
	g.add(rs, true)
}
