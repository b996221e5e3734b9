package experiment

import (
	"strings"
	"testing"
	"time"

	"vcalab/internal/netem"
	"vcalab/internal/scenario"
	"vcalab/internal/vca"
)

// Low-rep, few-condition versions of each experiment keep the suite fast;
// the timings are the paper's, which the runners fix, and the full grids
// are cmd/vcabench's.

func TestStaticSweepShapes(t *testing.T) {
	rs := RunStatic(StaticConfig{
		Profile:  vca.Meet(),
		Dir:      Uplink,
		CapsMbps: []float64{0.5, 2, 0},
		Reps:     2,
		Dur:      80 * time.Second,
		Seed:     1,
	})
	if len(rs) != 3 {
		t.Fatalf("got %d results, want 3", len(rs))
	}
	at05, at2, unc := rs[0], rs[1], rs[2]
	if at05.MedianMbps.Mean < 0.33 || at05.MedianMbps.Mean > 0.55 {
		t.Errorf("meet @0.5: median = %.2f, want high utilization", at05.MedianMbps.Mean)
	}
	if at2.MedianMbps.Mean < 0.7 || at2.MedianMbps.Mean > 1.2 {
		t.Errorf("meet @2: median = %.2f, want ~nominal 0.95", at2.MedianMbps.Mean)
	}
	if unc.CapacityMbps != 0 || unc.MeanUp.Mean < 0.7 {
		t.Errorf("unconstrained row wrong: %+v", unc.MedianMbps)
	}
	// Fig 2d-f shape: QP at 0.5 worse (higher) than at 2 Mbps.
	if at05.Out.QP <= at2.Out.QP {
		t.Errorf("QP should degrade when constrained: %.1f @0.5 vs %.1f @2", at05.Out.QP, at2.Out.QP)
	}
}

func TestPaperCaps(t *testing.T) {
	caps := PaperCaps()
	if len(caps) != 16 {
		t.Fatalf("PaperCaps() has %d entries, want 16: %v", len(caps), caps)
	}
	if caps[0] != 0.3 || caps[12] != 1.5 || caps[15] != 10 {
		t.Errorf("grid = %v", caps)
	}
}

func TestTable2Smoke(t *testing.T) {
	rs := Table2([]*vca.Profile{vca.Zoom()}, 1, 3)
	if len(rs) != 1 {
		t.Fatalf("got %d rows", len(rs))
	}
	if rs[0].MeanUp.Mean < 0.55 || rs[0].MeanUp.Mean > 1.1 {
		t.Errorf("zoom unconstrained up = %.2f, want ~0.78", rs[0].MeanUp.Mean)
	}
	var sb strings.Builder
	PrintTable2(&sb, rs)
	if !strings.Contains(sb.String(), "zoom") {
		t.Errorf("table output missing zoom: %q", sb.String())
	}
}

func TestDisruptionRecovers(t *testing.T) {
	r := RunDisruption(DisruptionConfig{
		Profile: vca.Meet(), Dir: Uplink, LevelMbps: 0.5, Reps: 2, Seed: 5,
	})
	if r.Recovered == 0 {
		t.Fatal("meet never recovered from a 0.5 Mbps uplink drop")
	}
	if r.TTR.Mean > 45 {
		t.Errorf("meet TTR from 0.5 = %.1fs, want < 45s", r.TTR.Mean)
	}
	// The series must show the drop: mean rate during [65,85]s well below
	// the pre-drop rate.
	pre := r.Series.Slice(30*time.Second, 60*time.Second)
	during := r.Series.Slice(65*time.Second, 85*time.Second)
	preMean, durMean := mean(pre.Values), mean(during.Values)
	if durMean > 0.75*preMean {
		t.Errorf("disruption invisible: pre %.2f vs during %.2f", preMean, durMean)
	}
}

// TestDisruptionTimeline checks the §4 dip as a repetition's timeline
// applies it: 1 ms after dropAt the disrupted direction of C1's access
// link runs at LevelMbps with its queue resized for that rate while the
// other direction stays unconstrained, and after dropAt+dropLen the
// constraint is gone.
func TestDisruptionTimeline(t *testing.T) {
	for _, dir := range []Direction{Uplink, Downlink} {
		t.Run(dir.String(), func(t *testing.T) {
			cfg := DisruptionConfig{Profile: vca.Meet(), Dir: dir, LevelMbps: 0.5}
			tr := cfg.newTrial(nil, 1)
			shaped, other := tr.lab.Downlink(), tr.lab.Uplink()
			if dir == Uplink {
				shaped, other = other, shaped
			}
			tr.start()
			tr.eng.RunUntil(dropAt + time.Millisecond)
			if want := netem.DefaultQueueBytes(0.5e6); shaped.Rate() != 0.5e6 || shaped.QueueBytes() != want {
				t.Errorf("%s in the dip: %v bps, queue %d B; want 0.5e6 bps, %d B",
					shaped.Name(), shaped.Rate(), shaped.QueueBytes(), want)
			}
			if other.Rate() != 0 {
				t.Errorf("%s in the dip: %v bps, want unconstrained", other.Name(), other.Rate())
			}
			tr.run(dropAt + dropLen + time.Millisecond)
			if shaped.Rate() != 0 {
				t.Errorf("%s after the dip: %v bps, want unconstrained", shaped.Name(), shaped.Rate())
			}
		})
	}
}

func mean(vs []float64) float64 {
	s := 0.0
	for _, v := range vs {
		s += v
	}
	if len(vs) == 0 {
		return 0
	}
	return s / float64(len(vs))
}

func TestCompetitionVCAvsVCA(t *testing.T) {
	r := RunCompetition(CompetitionConfig{
		Incumbent:   vca.Zoom(),
		Kind:        CompVCA,
		CompProfile: vca.Teams(),
		LinkMbps:    0.5,
		Reps:        1,
		Seed:        7,
	})
	// §5.1: an incumbent Zoom keeps >= 60% of the uplink against anyone.
	if r.ShareUp.Mean < 0.55 {
		t.Errorf("incumbent zoom uplink share vs teams = %.2f, want >= 0.55", r.ShareUp.Mean)
	}
	if r.IncUp.Len() == 0 || r.CompUp.Len() == 0 {
		t.Error("missing competition time series")
	}
}

func TestCompetitionVsIPerf(t *testing.T) {
	r := RunCompetition(CompetitionConfig{
		Incumbent: vca.Teams(),
		Kind:      CompIPerf,
		LinkMbps:  2,
		Reps:      1,
		Seed:      9,
	})
	// §5.2: Teams is passive against TCP — well under half the link.
	if r.ShareUp.Mean > 0.55 {
		t.Errorf("teams uplink share vs iperf = %.2f, want passive (< 0.55)", r.ShareUp.Mean)
	}
	if r.ShareDown.Mean > 0.5 {
		t.Errorf("teams downlink share vs iperf = %.2f, want passive", r.ShareDown.Mean)
	}
}

func TestModalitySweepShapes(t *testing.T) {
	rs := ModalitySweep(vca.Zoom(), vca.Gallery, 5, 1, 11)
	if len(rs) != 4 {
		t.Fatalf("got %d results, want 4 (n=2..5)", len(rs))
	}
	// §6.1: Zoom's uplink drops when the 5th participant joins.
	up4, up5 := rs[2].UpMbps.Mean, rs[3].UpMbps.Mean
	if up5 >= 0.8*up4 {
		t.Errorf("zoom uplink n=5 (%.2f) should drop well below n=4 (%.2f)", up5, up4)
	}
	// Downstream grows with participants before the tier drop.
	if rs[1].DownMbps.Mean <= rs[0].DownMbps.Mean {
		t.Errorf("zoom downstream n=3 (%.2f) should exceed n=2 (%.2f)",
			rs[1].DownMbps.Mean, rs[0].DownMbps.Mean)
	}
}

// TestLabResolveLink checks the Lab as a scenario.LinkResolver: a host
// behind the switch resolves to the shaped bottleneck, a remote host to
// its own router pair, an unknown host or an inter-region kind to nothing.
func TestLabResolveLink(t *testing.T) {
	tr := labTrial(nil, 1, vca.Meet(), 2, 0, 0, vca.CallOptions{Seed: 1})
	tr.start()
	tr.lab.ClientHost("f1") // attached mid-call, as the §5 competitor is
	for _, c := range []struct {
		ref  scenario.LinkRef
		want string
	}{
		{scenario.LinkRef{Kind: scenario.LinkClientUp, Client: "c1"}, "bottleneck/up"},
		{scenario.LinkRef{Kind: scenario.LinkClientDown, Client: "c1"}, "bottleneck/down"},
		{scenario.LinkRef{Kind: scenario.LinkClientUp, Client: "f1"}, "bottleneck/up"},
		{scenario.LinkRef{Kind: scenario.LinkClientDown, Client: "f1"}, "bottleneck/down"},
		{scenario.LinkRef{Kind: scenario.LinkClientUp, Client: "c2"}, "c2-rt"},
		{scenario.LinkRef{Kind: scenario.LinkClientDown, Client: "c2"}, "rt-c2"},
		{scenario.LinkRef{Kind: scenario.LinkClientUp, Client: "sfu"}, "sfu-rt"},
		{scenario.LinkRef{Kind: scenario.LinkClientDown, Client: "sfu"}, "rt-sfu"},
		{scenario.LinkRef{Kind: scenario.LinkClientUp, Client: "c3"}, ""},
		{scenario.LinkRef{Kind: scenario.LinkInter, Client: "c1", From: 0, To: 1}, ""},
		{scenario.LinkRef{Kind: scenario.LinkInterPair, Client: "c1", From: 0, To: 1}, ""},
		{scenario.LinkRef{Kind: scenario.LinkInterAll, Client: "c1"}, ""},
	} {
		var got []string
		for _, l := range tr.lab.ResolveLink(c.ref) {
			got = append(got, l.Name())
		}
		if strings.Join(got, ",") != c.want {
			t.Errorf("ResolveLink(%+v) = %q, want %q", c.ref, got, c.want)
		}
	}
	tr.run(time.Second)
}

func TestImpairmentSweep(t *testing.T) {
	rs := RunImpairment(ImpairmentConfig{
		Profile:  vca.Zoom(),
		LossPcts: []float64{0, 5},
		Jitter:   10 * time.Millisecond,
		Reps:     1,
		Seed:     5,
	})
	if len(rs) != 2 {
		t.Fatalf("got %d results", len(rs))
	}
	clean, lossy := rs[0], rs[1]
	if clean.UpMbps.Mean < 0.5 {
		t.Errorf("clean-link zoom up = %.2f", clean.UpMbps.Mean)
	}
	// 5% random loss is within Zoom's FEC tolerance: utilization must not
	// collapse, but receiver-side quality degrades.
	if lossy.UpMbps.Mean < 0.4*clean.UpMbps.Mean {
		t.Errorf("zoom collapsed under 5%% random loss: %.2f vs %.2f",
			lossy.UpMbps.Mean, clean.UpMbps.Mean)
	}
	if lossy.FIRCount.Mean <= clean.FIRCount.Mean {
		t.Errorf("random loss did not increase FIRs: %v vs %v",
			lossy.FIRCount.Mean, clean.FIRCount.Mean)
	}
}

func TestImpairmentTeamsVsZoomLossSensitivity(t *testing.T) {
	run := func(p *vca.Profile) float64 {
		rs := RunImpairment(ImpairmentConfig{
			Profile: p, LossPcts: []float64{3}, Reps: 1, Seed: 6,
		})
		return rs[0].UpMbps.Mean
	}
	zoom, teams := run(vca.Zoom()), run(vca.Teams())
	// Teams backs off at 2% loss; Zoom's FEC shrugs 3% off. Compare
	// utilization relative to each VCA's nominal rate.
	zoomFrac := zoom / 0.82
	teamsFrac := teams / 1.44
	if zoomFrac <= teamsFrac {
		t.Errorf("under 3%% random loss zoom should retain more of nominal: zoom %.2f vs teams %.2f",
			zoomFrac, teamsFrac)
	}
}

// TestLabTraceReplay replays a capacity trace on the Lab through a
// scenario timeline: a sawtooth on both directions of C1's access link,
// 2 -> 0.6 -> 1.2 -> 0.4 -> 2 Mbps.
func TestLabTraceReplay(t *testing.T) {
	steps := []scenario.TraceStep{
		{At: 0, RateBps: 2e6},
		{At: 40 * time.Second, RateBps: 0.6e6},
		{At: 80 * time.Second, RateBps: 1.2e6},
		{At: 120 * time.Second, RateBps: 0.4e6},
		{At: 160 * time.Second, RateBps: 2e6},
	}
	tr := labTrial(nil, 9, vca.Zoom(), 2, 0, 0, vca.CallOptions{Seed: 9})
	up := scenario.Trace(scenario.LinkRef{Kind: scenario.LinkClientUp, Client: "c1"}, "sawtooth", steps)
	down := scenario.Trace(scenario.LinkRef{Kind: scenario.LinkClientDown, Client: "c1"}, "sawtooth", steps)
	tr.timeline = scenario.New(tr.eng, tr.call, tr.lab, scenario.Scenario{Name: "sawtooth", Events: append(up, down...)})
	tr.start()
	tr.run(200 * time.Second)
	// The sent series must visibly track the sawtooth: mean rate in the
	// 0.4 Mbps valley well below the 2 Mbps plateau mean.
	sent := tr.call.C1().UpMeter.RateMbps()
	valley := mean(sent.Slice(135*time.Second, 160*time.Second).Values)
	plateau := mean(sent.Slice(20*time.Second, 40*time.Second).Values)
	if valley >= 0.75*plateau {
		t.Errorf("sent rate did not track the trace: valley %.2f vs plateau %.2f", valley, plateau)
	}
}

func TestFormatters(t *testing.T) {
	var sb strings.Builder
	rs := RunStatic(StaticConfig{
		Profile: vca.Zoom(), Dir: Uplink, CapsMbps: []float64{2},
		Reps: 1, Dur: 45 * time.Second, Seed: 1,
	})
	PrintStatic(&sb, rs)
	if !strings.Contains(sb.String(), "zoom") || !strings.Contains(sb.String(), "2.0") {
		t.Errorf("PrintStatic output: %q", sb.String())
	}
	sb.Reset()
	m := RunModality(ModalityConfig{Profile: vca.Meet(), N: 3, Mode: vca.Gallery, Reps: 1, Seed: 2})
	PrintModality(&sb, []ModalityResult{m})
	if !strings.Contains(sb.String(), "gallery") {
		t.Errorf("PrintModality output: %q", sb.String())
	}
	sb.Reset()
	im := RunImpairment(ImpairmentConfig{Profile: vca.Meet(), LossPcts: []float64{1}, Reps: 1, Seed: 3})
	PrintImpairment(&sb, im)
	if !strings.Contains(sb.String(), "1.0%") {
		t.Errorf("PrintImpairment output: %q", sb.String())
	}
}
