package cascade

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"vcalab/internal/netem"
	"vcalab/internal/obs"
	"vcalab/internal/race"
	"vcalab/internal/vca"
)

func threeRegionTopo() Topology {
	return Topology{
		Regions: []Region{
			{Name: "r0", Clients: []string{"c1", "c4", "c7"}},
			{Name: "r1", Clients: []string{"c2", "c5", "c8"}},
			{Name: "r2", Clients: []string{"c3", "c6", "c9"}},
		},
		Default: netem.LinkConfig{RateBps: 20e6, Delay: 30 * time.Millisecond},
	}
}

// cascadeFingerprint flattens every observable outcome of a finished
// trial — all link counters, server forwarding state, per-client
// getStats reports — into one comparable string.
func cascadeFingerprint(tr *Trial, now time.Duration) string {
	var b strings.Builder
	for _, l := range tr.Links() {
		fmt.Fprintf(&b, "%s d=%d db=%d x=%d xb=%d qhw=%d\n",
			l.Name(), l.Delivered, l.DeliveredBytes, l.Drops, l.DroppedBytes, l.QueueHighWater())
	}
	for _, s := range tr.Call.Servers {
		fmt.Fprintf(&b, "fwd=%d legs=%v\n", s.FwdSwitches(), s.LegNames())
	}
	for _, cl := range tr.Call.Clients {
		fmt.Fprintf(&b, "%+v\n", cl.StatsReport(now))
	}
	return b.String()
}

// runCascadeTrial runs one 9-party/3-region trial at the given shard
// count, asserts it came home clean on every engine, and returns its
// fingerprint.
func runCascadeTrial(t *testing.T, prof *vca.Profile, shards int) string {
	t.Helper()
	const seed = 7
	const dur = 20 * time.Second
	tr := NewTrial(seed, threeRegionTopo(), shards, prof, vca.CallOptions{Seed: seed})
	defer tr.Close()

	// One control engine, plus one engine per shard when there are any.
	wantEngines := 1
	if shards > 1 {
		wantEngines = 1 + shards
	}
	engines := tr.Engines()
	if len(engines) != wantEngines {
		t.Fatalf("shards=%d: %d engines, want %d", shards, len(engines), wantEngines)
	}
	if engines[0] != tr.Eng {
		t.Fatalf("shards=%d: Engines()[0] is not the control engine", shards)
	}
	for ri, sfu := range tr.SFUs {
		want := engines[0]
		if shards > 1 {
			want = engines[1+ri%shards]
		}
		if got := sfu.Uplink().Engine(); got != want {
			t.Fatalf("shards=%d: region %d is not on engine %d of Engines()", shards, ri, 1+ri%shards)
		}
	}

	tr.Call.Start()
	tr.RunUntil(dur)
	tr.Call.Stop()
	tr.Drain()
	for k, e := range engines {
		if e.Now() < dur {
			t.Fatalf("shards=%d: engine %d clock at %v after RunUntil(%v)", shards, k, e.Now(), dur)
		}
		if live, pend := e.Live(), e.Pending(); live != 0 || pend != 0 {
			t.Fatalf("shards=%d: engine %d has %d pooled events live, %d pending after drain", shards, k, live, pend)
		}
	}
	if got := len(tr.BoundaryLinks()) > 0; got != (shards > 1) {
		t.Fatalf("shards=%d: %d boundary links", shards, len(tr.BoundaryLinks()))
	}
	for _, l := range tr.BoundaryLinks() {
		if n := l.BoundaryPoolLive(); n != 0 {
			t.Fatalf("shards=%d: boundary link %s leaked %d envelopes", shards, l.Name(), n)
		}
	}
	for k, e := range engines[1:] {
		if e.Processed() == 0 {
			t.Fatalf("shards=%d: shard engine %d ran no events", shards, k+1)
		}
	}
	for ri, hosts := range tr.Clients {
		for _, h := range hosts {
			if n := h.PoolLive(); n != 0 {
				t.Fatalf("shards=%d: host %s leaked %d packets", shards, h.Name, n)
			}
		}
		if n := tr.SFUs[ri].PoolLive(); n != 0 {
			t.Fatalf("shards=%d: %s leaked %d packets", shards, tr.SFUs[ri].Name, n)
		}
	}
	tr.Close() // idempotent, and a no-op on one engine: the fingerprint below still reads
	return cascadeFingerprint(tr, dur)
}

// TestShardedMatchesSequential is the cascade-level identity gate: the
// complete observable outcome of a 3-region call is the same whether
// NewTrial puts it on one engine or splits it 2 or 3 ways.
func TestShardedMatchesSequential(t *testing.T) {
	for _, prof := range []*vca.Profile{vca.Meet(), vca.Zoom(), vca.Teams()} {
		base := runCascadeTrial(t, prof, 1)
		for _, shards := range []int{2, 3} {
			got := runCascadeTrial(t, prof, shards)
			if got != base {
				t.Errorf("%s: shards=%d diverges from sequential:\n%s",
					prof.Name, shards, firstDiff(base, got))
			}
		}
	}
}

// firstDiff returns the first differing line pair of two multi-line
// strings, to keep divergence reports readable.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  seq:   %s\n  shard: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}

// TestTrialEngineCount: how many engines a topology gets — the request
// capped at the region count, and one whenever conservative windows are
// impossible.
func TestTrialEngineCount(t *testing.T) {
	single := Topology{Regions: []Region{{Name: "r0", Clients: []string{"c1", "c2"}}}}
	zero := threeRegionTopo()
	zero.Default = netem.LinkConfig{RateBps: 20e6} // rate only: every inter link has zero delay
	for _, c := range []struct {
		name        string
		topo        Topology
		shards      int
		wantEngines int // control + shards
	}{
		{"zero shards is one engine", threeRegionTopo(), 0, 1},
		{"one shard is one engine", threeRegionTopo(), 1, 1},
		{"two shards", threeRegionTopo(), 2, 3},
		{"capped at the region count", threeRegionTopo(), 5, 4},
		{"single region", single, 2, 1},
		{"zero-delay boundary", zero, 3, 1},
	} {
		tr := NewTrial(1, c.topo, c.shards, vca.Meet(), vca.CallOptions{Seed: 1})
		if got := len(tr.Engines()); got != c.wantEngines {
			t.Errorf("%s: %d engines, want %d", c.name, got, c.wantEngines)
		}
		if c.wantEngines > 1 {
			if got := tr.lookahead(); got != 30*time.Millisecond {
				t.Errorf("%s: lookahead %v, want 30ms", c.name, got)
			}
		}
		tr.Close()
		tr.Close()
	}
}

// TestTrialTraceOneTracerPerEngine: a ring on each engine of the trial
// captures the whole call with no wiring — the merge of the rings counts
// the same enqueues and events on one engine as on two or three.
func TestTrialTraceOneTracerPerEngine(t *testing.T) {
	counts := func(shards int) (enq, total uint64) {
		tr := NewTrial(3, threeRegionTopo(), shards, vca.Meet(), vca.CallOptions{Seed: 3})
		defer tr.Close()
		var rings []*obs.Tracer
		for _, e := range tr.Engines() {
			rings = append(rings, obs.NewTracer(1<<10))
			e.SetTracer(rings[len(rings)-1])
		}
		tr.Call.Start()
		tr.RunUntil(2 * time.Second)
		tr.Call.Stop()
		tr.Drain()
		got := obs.Merge(rings...)
		return got.Count(obs.EvEnqueue), got.Total()
	}
	enq1, total1 := counts(1)
	if enq1 == 0 {
		t.Fatal("nothing traced")
	}
	for _, shards := range []int{2, 3} {
		if enq, total := counts(shards); enq != enq1 || total != total1 {
			t.Errorf("shards=%d traced %d enqueues of %d events, one engine %d of %d", shards, enq, total, enq1, total1)
		}
	}
}

// benchTrial is the cascaded call the allocation budget and the shard
// benchmark run: n participants over 3 regions joined at 20 Mbps.
func benchTrial(n, shards int, prof *vca.Profile, recovery bool) *Trial {
	const seed = 1
	inter := netem.LinkConfig{RateBps: 20e6, Delay: DefaultInterDelay}
	return NewTrial(seed, Uniform(n, 3, inter), shards, prof, vca.CallOptions{Seed: seed, Recovery: recovery})
}

// runBenchCall runs tr's call for 30 simulated seconds, start to stop, and
// returns the events executed over all of its engines.
func runBenchCall(tr *Trial) (events uint64) {
	tr.Call.Start()
	tr.RunUntil(30 * time.Second)
	tr.Call.Stop()
	for _, e := range tr.Engines() {
		events += e.Processed()
	}
	return events
}

// TestTrialAllocsPerEvent holds a whole cascaded call — build-up included,
// relay legs and inter-region links on the path — to a malloc budget per
// executed event: 0.02 with recovery off, 0.04 with recovery on under 1%
// loss on every link. The vca SteadyState tests pin a warmed-up window on
// one SFU far tighter; this is the budget across a mesh, and the only gate
// a relay leg is on. Measured 0.003-0.004 off and 0.016-0.026 on. Relayed
// packets are only ~4% of events, so one allocation per packet on relay
// legs alone adds 0.037-0.065 — over both budgets on every row; one per
// forwarded packet (downTrack.send) measures 0.39-0.43.
func TestTrialAllocsPerEvent(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates")
	}
	for _, prof := range []*vca.Profile{vca.Teams(), vca.Meet(), vca.Zoom()} {
		for _, recovery := range []bool{false, true} {
			tr := benchTrial(24, 1, prof, recovery)
			if recovery {
				for _, l := range tr.Links() {
					l.SetImpairment(0.01, 0)
				}
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			events := runBenchCall(tr)
			runtime.ReadMemStats(&after)
			mallocs := after.Mallocs - before.Mallocs
			budget, report := 0.02, t.Logf
			if recovery {
				budget = 0.04
			}
			if float64(mallocs) > budget*float64(events) {
				report = t.Errorf
			}
			report("%s recovery=%v: %d mallocs over %d events = %.4f per event, budget %.2f",
				prof.Name, recovery, mallocs, events, float64(mallocs)/float64(events), budget)
			if nacks, rtx := tr.Call.NackRTXTotals(); recovery && (nacks == 0 || rtx == 0) {
				t.Errorf("%s: recovery loop idle under loss: %d NACKed seqs, %d RTX", prof.Name, nacks, rtx)
			}
		}
	}
}

// BenchmarkTrialShards times the 48-party/3-region Teams call on one
// engine and on three region shards. Every run's event, delivered-byte and
// drop totals must equal the first run's, whichever leg that was.
func BenchmarkTrialShards(b *testing.B) {
	type totals struct{ events, delivered, dropped uint64 }
	var want totals
	for _, shards := range []int{1, 3} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			var events uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tr := benchTrial(48, shards, vca.Teams(), false)
				b.StartTimer()
				got := totals{events: runBenchCall(tr)}
				b.StopTimer()
				tr.Close()
				for _, l := range tr.Links() {
					got.delivered += l.DeliveredBytes
					got.dropped += l.Drops
				}
				if want == (totals{}) {
					want = got
				}
				if got != want {
					b.Fatalf("shards=%d: %+v, first run %+v", shards, got, want)
				}
				events += got.events
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
		})
	}
}
