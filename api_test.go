package vcalab_test

import (
	"fmt"
	"os/exec"
	"reflect"
	"testing"
	"time"

	"vcalab"
)

// These tests exercise the public facade exactly the way the README and
// examples do, guarding the exported API surface.

func TestFacadeQuickstart(t *testing.T) {
	eng := vcalab.NewEngine(42)
	_, call := vcalab.NewLabCall(eng, vcalab.Zoom(), 2, 1e6, 1e6, vcalab.CallOptions{Seed: 42})
	call.Start()
	eng.RunUntil(60 * time.Second)
	call.Stop()
	up := call.C1().UpMeter.MeanRateMbps(20*time.Second, 60*time.Second)
	if up < 0.4 || up > 1.1 {
		t.Errorf("quickstart upstream = %.2f Mbps, want ~0.8 on a 1 Mbps link", up)
	}

	// NewLabCall is the hand assembly it replaced: at one seed, C1's
	// per-second rates are identical, for the quickstart's shaped 2-party
	// call and for a 4-party speaker call built the way modality did.
	for _, c := range []struct {
		n        int
		up, down float64
		mode     vcalab.ViewMode
	}{{2, 1e6, 1e6, vcalab.Gallery}, {4, 0, 0, vcalab.Speaker}} {
		opt := vcalab.CallOptions{Mode: c.mode, Seed: 42}
		eng := vcalab.NewEngine(42)
		lab := vcalab.NewLab(eng, c.up, c.down)
		hosts := []*vcalab.Host{lab.ClientHost("c1")}
		for i := 2; i <= c.n; i++ {
			hosts = append(hosts, lab.RemoteHost(fmt.Sprintf("c%d", i), vcalab.RemoteDelay))
		}
		hand := c1Rates(eng, vcalab.NewCall(eng, vcalab.Zoom(), lab.RemoteHost("sfu", vcalab.SFUDelay), hosts, opt))
		eng = vcalab.NewEngine(42)
		_, call := vcalab.NewLabCall(eng, vcalab.Zoom(), c.n, c.up, c.down, opt)
		if built := c1Rates(eng, call); !reflect.DeepEqual(built, hand) {
			t.Errorf("n=%d: NewLabCall's C1 rates differ from the hand-built call's", c.n)
		}
	}
}

// c1Rates runs call for 60 s and returns C1's per-second up and down
// rates.
func c1Rates(eng *vcalab.Engine, call *vcalab.Call) [2]vcalab.Series {
	call.Start()
	eng.RunUntil(60 * time.Second)
	call.Stop()
	return [2]vcalab.Series{call.C1().UpMeter.RateMbps(), call.C1().DownMeter.RateMbps()}
}

func TestFacadeProfilesComplete(t *testing.T) {
	ps := vcalab.Profiles()
	for _, name := range []string{"meet", "zoom", "teams", "teams-chrome", "zoom-chrome"} {
		if ps[name] == nil {
			t.Errorf("missing profile %q", name)
		}
	}
	if len(ps) != 5 {
		t.Errorf("got %d profiles, want 5", len(ps))
	}
}

func TestFacadeExperimentRunners(t *testing.T) {
	// Tiny versions of each runner, verifying the exported plumbing.
	rs := vcalab.RunStatic(vcalab.StaticConfig{
		Profile: vcalab.Meet(), Dir: vcalab.Uplink, CapsMbps: []float64{2},
		Reps: 1, Dur: 50 * time.Second, Warmup: 20 * time.Second, Seed: 1,
	})
	if len(rs) != 1 || rs[0].MedianMbps.Mean <= 0 {
		t.Errorf("RunStatic broken: %+v", rs)
	}
	m := vcalab.RunModality(vcalab.ModalityConfig{
		Profile: vcalab.Teams(), N: 3, Mode: vcalab.Speaker, Reps: 1,
		Dur: 40 * time.Second, Warmup: 15 * time.Second, Seed: 1,
	})
	if m.UpMbps.Mean <= 0 {
		t.Errorf("RunModality broken: %+v", m)
	}
}

func TestFacadeStatsHelpers(t *testing.T) {
	if vcalab.Median([]float64{1, 2, 3}) != 2 {
		t.Error("Median broken")
	}
	if vcalab.Share(3, 1) != 0.75 {
		t.Error("Share broken")
	}
	s := vcalab.Summarize([]float64{1, 2, 3})
	if s.N != 3 || s.Mean != 2 {
		t.Errorf("Summarize broken: %+v", s)
	}
	if len(vcalab.PaperCaps()) != 16 || len(vcalab.PaperDisruptionLevels()) != 4 ||
		len(vcalab.PaperCompetitionLinks()) != 6 {
		t.Error("paper grids broken")
	}
}

// TestBenchModuleBuilds: bench/ is its own module and imports this facade,
// so `go test ./...` never compiles it. Running its unit tests from here
// makes a facade change that breaks the benchmark fail the gate.
func TestBenchModuleBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and tests a second module")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go binary on PATH")
	}
	if out, err := exec.Command(goBin, "test", "-C", "bench", ".").CombinedOutput(); err != nil {
		t.Fatalf("go test -C bench . failed: %v\n%s", err, out)
	}
}
