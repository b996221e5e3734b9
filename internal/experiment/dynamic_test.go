package experiment

import (
	"strings"
	"testing"
	"time"

	"vcalab/internal/netem"
	"vcalab/internal/reuse"
	"vcalab/internal/scenario"
	"vcalab/internal/vca"
)

// dynTestConfig is the small grid the determinism and behaviour tests
// share: 8 participants over 2 regions riding the churn storm.
func dynTestConfig(p *vca.Profile) DynamicConfig {
	return DynamicConfig{
		Profile:      p,
		Scenario:     scenario.ChurnStorm(8),
		Participants: 8,
		Regions:      2,
		InterMbps:    10,
		Reps:         2,
		Dur:          70 * time.Second,
		Warmup:       10 * time.Second,
		Seed:         5,
	}
}

// churnRecoveryConfig is one recovery-on Zoom churn storm, the trial the
// allocation budgets and TestReleasedStateChangesNoOutput run: every leave
// drains rings into the stash and every rejoin takes them back.
func churnRecoveryConfig() DynamicConfig {
	cfg := dynTestConfig(vca.Zoom())
	cfg.Reps, cfg.Dur, cfg.Seed, cfg.Recovery = 1, 80*time.Second, 1, true
	return cfg
}

// TestReleasedStateChangesNoOutput: a trial built on what an earlier trial
// released prints what a trial built from nothing prints, on both trial
// shapes. On the mesh, the recovery-on churn storm runs cold (reuse.Drop
// empties the free lists), warm (on the engine, host pools, RNGs, rings,
// send histories and packet pools the cold run released), and cold again;
// then four repetitions at parallelism 2, whose workers take from and
// release into the free lists at once, print what the same four print one
// at a time. On the lab, a Meet static sweep at parallelism 2 prints cold
// what it prints after a Zoom-vs-Meet competition trial, both calls
// released, has filled the free lists.
// Under -race those handoffs across workers are what the detector watches.
func TestReleasedStateChangesNoOutput(t *testing.T) {
	out := func(par, reps int) string {
		setParallelism(t, par)
		cfg := churnRecoveryConfig()
		cfg.Reps, cfg.Dur = reps, 60*time.Second // the last rejoin is at 56.4 s
		var buf strings.Builder
		PrintDynamic(&buf, RunDynamic(cfg))
		return buf.String()
	}
	flush := reuse.Drop
	flush()
	cold := out(1, 1)
	if warm := out(1, 1); warm != cold {
		t.Errorf("a warm trial prints differently:\n-- cold --\n%s-- warm --\n%s", cold, warm)
	}
	flush()
	if again := out(1, 1); again != cold {
		t.Errorf("a trial after a flush prints differently:\n-- cold --\n%s-- after flush --\n%s", cold, again)
	}
	if seq, par := out(1, 4), out(2, 4); seq != par {
		t.Errorf("four trials print differently at parallelism 2:\n-- parallel 1 --\n%s-- parallel 2 --\n%s", seq, par)
	}

	static := func() string {
		setParallelism(t, 2)
		var buf strings.Builder
		PrintStatic(&buf, RunStatic(StaticConfig{Profile: vca.Meet(), Dir: Uplink, CapsMbps: []float64{0.5, 1}, Reps: 2, Dur: 40 * time.Second, Seed: 3}))
		return buf.String()
	}
	flush()
	coldLab := static()
	RunCompetition(CompetitionConfig{Incumbent: vca.Zoom(), Kind: CompVCA, CompProfile: vca.Meet(), LinkMbps: 2, Reps: 1, Seed: 1})
	if warm := static(); warm != coldLab {
		t.Errorf("a static sweep after a competition trial prints differently:\n-- cold --\n%s-- warm --\n%s", coldLab, warm)
	}
}

// TestDynamicDeterministicAcrossParallelism is the acceptance gate: the
// printed RunDynamic output must be byte-identical at -parallel 1 and 4.
func TestDynamicDeterministicAcrossParallelism(t *testing.T) {
	out := func(par int) string {
		setParallelism(t, par)
		cfg := dynTestConfig(vca.Meet())
		var buf strings.Builder
		PrintDynamic(&buf, RunDynamic(cfg))
		return buf.String()
	}
	seq, par := out(1), out(4)
	if seq != par {
		t.Errorf("dynamic output differs across parallelism:\n-- parallel 1 --\n%s-- parallel 4 --\n%s", seq, par)
	}
	if !strings.Contains(seq, "churn-storm") {
		t.Errorf("output does not name the scenario:\n%s", seq)
	}
}

// TestDynamicRegionPartitionLossRecovery is the loss-recovery acceptance
// gate at the experiment level: the region-partition scenario composed
// with sustained 3% random loss on C1's access downlink (a WAN blackout
// riding on a lossy last mile). NACK/RTX must strictly reduce the mean
// freeze ratio versus the same seeds with recovery off, and the
// recovery-enabled run must stay byte-identical across both parallelism
// axes (-parallel 1 vs 4, -shards 1 vs 2).
func TestDynamicRegionPartitionLossRecovery(t *testing.T) {
	partitionLossy := func() scenario.Scenario {
		sc := scenario.RegionPartitionAndHeal(0, 1)
		lossy := scenario.ShapeLink(time.Second,
			scenario.LinkRef{Kind: scenario.LinkClientDown, Client: "c1"},
			scenario.Shape{SetImpair: true, LossProb: 0.03})
		lossy.Label = "last-mile-loss"
		sc.Events = append([]scenario.Event{lossy}, sc.Events...)
		return sc
	}
	run := func(par, shards int, recovery bool) (DynamicResult, string) {
		setParallelism(t, par)
		cfg := dynTestConfig(vca.Meet())
		cfg.Scenario = partitionLossy()
		cfg.Shards = shards
		cfg.Recovery = recovery
		r := RunDynamic(cfg)
		var buf strings.Builder
		PrintDynamic(&buf, r)
		return r, buf.String()
	}

	off, _ := run(1, 1, false)
	on, onSeq := run(1, 1, true)
	if on.FreezeRatio.Mean >= off.FreezeRatio.Mean {
		t.Errorf("recovery-on freeze %v, want strictly below recovery-off %v",
			on.FreezeRatio.Mean, off.FreezeRatio.Mean)
	}
	if on.DownMbps.Mean <= 0 {
		t.Errorf("recovery-on call carried no traffic: down %v", on.DownMbps.Mean)
	}

	if _, onPar := run(4, 1, true); onSeq != onPar {
		t.Errorf("recovery-on output differs across parallelism:\n-- parallel 1 --\n%s-- parallel 4 --\n%s", onSeq, onPar)
	}
	if _, onSharded := run(1, 2, true); onSeq != onSharded {
		t.Errorf("recovery-on output differs across shards:\n-- shards 1 --\n%s-- shards 2 --\n%s", onSeq, onSharded)
	}
}

// TestDynamicReportsRecovery checks the recovery machinery end to end on
// the capacity-cliff scenario: the cliff depresses C1's download, and the
// restore event recovers within the run in at least one repetition.
func TestDynamicReportsRecovery(t *testing.T) {
	cfg := dynTestConfig(vca.Teams())
	cfg.Scenario = scenario.CapacityCliff(1e6, 10e6)
	cfg.Dur = 80 * time.Second
	r := RunDynamic(cfg)
	if len(r.Events) != 1 {
		t.Fatalf("capacity-cliff reports %d recovery events, want 1", len(r.Events))
	}
	ev := r.Events[0]
	if ev.Label != "cliff-restored" {
		t.Errorf("recovery event label %q, want cliff-restored", ev.Label)
	}
	if ev.Recovered == 0 {
		t.Error("no repetition recovered after the cliff restore")
	}
	if ev.Recovered > 0 && ev.TTRSec.Mean <= 0 {
		t.Errorf("recovered with non-positive mean TTR %v", ev.TTRSec.Mean)
	}
	if r.DownMbps.Mean <= 0 || r.LatP50Ms.Mean <= 0 {
		t.Errorf("empty aggregate metrics: down %v lat %v", r.DownMbps.Mean, r.LatP50Ms.Mean)
	}
}

// cellularGen is a generated 8p/2r scenario with a cellular motif: a
// five-step trace on c5's uplink from 29.5 s with handovers at 36.9 s
// and 46.3 s.
func cellularGen() scenario.Scenario {
	return scenario.Generate(1, scenario.GenConfig{Participants: 8, Regions: 2, InterBps: 10e6, Dur: 60 * time.Second})
}

// TestCellularEpisodeBuffersHandovers binds a generated cellular episode
// to the cascade trial every runner builds. Each capacity step is the
// `tc` re-shape, so the uplink's drop-tail queue is the default depth for
// the stepped rate — an access link starts unconstrained with no queue —
// and a handover gap queues what arrives during it instead of dropping it.
func TestCellularEpisodeBuffersHandovers(t *testing.T) {
	sc := cellularGen()
	var step, pause scenario.Event
	for _, ev := range sc.Events {
		if ev.Label == "cellular" && step.Label == "" {
			step = ev
		}
		if ev.Label == "handover" && pause.Label == "" {
			pause = ev
		}
	}
	if step.Label == "" || pause.Label == "" {
		t.Fatal("test premise: generated scenario has no cellular step and handover")
	}
	tr := newMeshTrial(nil, 1, vca.Meet(), 8, 2, 10, 1, false)
	defer tr.mesh.Close()
	links := scenario.MeshLinks(tr.mesh.Mesh)
	tr.timeline = scenario.New(tr.eng, tr.call, links, sc)
	tr.start()
	up := links.ResolveLink(step.Ref)[0]

	tr.mesh.RunUntil(step.At)
	if up.Rate() != step.Shape.RateBps {
		t.Fatalf("uplink rate %v after the first step, want %v", up.Rate(), step.Shape.RateBps)
	}
	if got, want := up.QueueBytes(), netem.DefaultQueueBytes(up.Rate()); got != want {
		t.Errorf("uplink queue bound %d B at %.0f bps, want the default %d B", got, up.Rate(), want)
	}

	tr.mesh.RunUntil(pause.At)
	if !up.Paused() {
		t.Fatalf("uplink not paused at the handover (%v)", pause.At)
	}
	sent, drops := 0, up.Drops
	up.OnSend(func(*netem.Packet) { sent++ })
	tr.mesh.RunUntil(pause.At + 100*time.Millisecond)
	if sent == 0 {
		t.Fatal("no packet offered to the uplink in the handover's first 100ms")
	}
	if up.Drops != drops || up.QueuedBytes() == 0 {
		t.Errorf("handover gap: %d packets offered, %d dropped, %d B queued; want all queued",
			sent, up.Drops-drops, up.QueuedBytes())
	}
}
