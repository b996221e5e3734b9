package experiment

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"vcalab/internal/scenario"
	"vcalab/internal/vca"
)

// fuzzTestConfig is the reduced grid the smoke and determinism tests
// share; short mode shrinks the seed count further.
func fuzzTestConfig(n int) FuzzConfig {
	return FuzzConfig{
		N:            n,
		Seed:         1,
		Participants: 6,
		Dur:          25 * time.Second,
	}
}

// TestRunFuzzSmoke is the in-tree half of the CI fuzz gate: a band of
// seeded generated scenarios must replay with zero invariant violations,
// on one engine and region-sharded — where every replay must also drain
// to zero live events and zero outstanding envelopes on every shard.
// Failures print with the seed so `vcabench -fuzz 1 -seed S` reproduces.
func TestRunFuzzSmoke(t *testing.T) {
	for _, row := range []struct {
		shards, n, short int
	}{
		{shards: 1, n: 50, short: 8},
		{shards: 2, n: 12, short: 3},
	} {
		t.Run(fmt.Sprintf("shards=%d", row.shards), func(t *testing.T) {
			cfg := fuzzTestConfig(row.n)
			if testing.Short() {
				cfg.N = row.short
			}
			cfg.Shards = row.shards
			r := RunFuzz(cfg)
			if r.N != cfg.N {
				t.Fatalf("ran %d seeds, want %d", r.N, cfg.N)
			}
			if r.Events == 0 {
				t.Fatal("no events replayed: the generator produced empty scenarios")
			}
			for _, f := range r.Failures {
				t.Errorf("seed %d (%s, %s): %v — reproduce: vcabench -fuzz 1 -seed %d -shards %d",
					f.Seed, f.Profile, f.Scenario, f.Violations, f.Seed, row.shards)
			}
		})
	}
}

// TestFuzzReplayCanned: the invariant harness holds on the canned corpus,
// not just generated timelines, on one engine and region-sharded, through
// the replay every fuzz seed takes (Meet, 8p/2r, 10 Mbps, 60 s, seed 1).
func TestFuzzReplayCanned(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			// The canned scenarios script a full 60-second call; a shorter
			// replay would leave late events legitimately unapplied.
			cfg := FuzzConfig{Participants: 8, Regions: 2, InterMbps: 10, Dur: 60 * time.Second, Shards: shards}
			for _, name := range scenario.CannedNames() {
				sc, err := scenario.Canned(name, cfg.Participants, cfg.InterMbps*1e6)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if vs := cfg.replay(&trialObs{capture: fuzzCapture()}, sc, vca.Meet(), 1); len(vs) != 0 {
					t.Errorf("%s: %d violations: %v", name, len(vs), vs)
				}
			}
		})
	}
}

// TestFuzzReplayRejectsZeroInterDelay: an inter-region delay of zero
// would leave a sharded run no lookahead, and the shard group panics on
// it mid-call. Validate rejects it first, so the fuzz run reports a
// validate violation with its seed instead.
func TestFuzzReplayRejectsZeroInterDelay(t *testing.T) {
	cfg := FuzzConfig{Participants: 4, Regions: 2, InterMbps: 10, Dur: 20 * time.Second, Shards: 2}
	sc := scenario.Scenario{Name: "zero-inter-delay", Events: []scenario.Event{
		scenario.ShapeLink(12*time.Second, scenario.LinkRef{Kind: scenario.LinkInterPair, From: 0, To: 1}, scenario.Shape{SetDelay: true}),
	}}
	vs := cfg.replay(&trialObs{capture: fuzzCapture()}, sc, vca.Meet(), 1)
	if len(vs) != 1 || vs[0].Invariant != "validate" {
		t.Errorf("violations %v, want one validate violation", vs)
	}
}

// TestRunFuzzRecoverySmoke replays the same seed band with packet-level
// loss recovery enabled, adding the RTX-clone and NACK-queue conservation
// invariants to every replay — churn storms and partitions must never
// leak a retransmission clone or strand a NACK queue — on one engine and
// region-sharded. The sharded leg is where shard goroutines read the call
// registry (a flow label's first build, the client's absent-ID gate)
// while Leave and Rejoin flip a participant's absent bit at a barrier,
// so the -race -short CI pass runs it too.
func TestRunFuzzRecoverySmoke(t *testing.T) {
	for _, row := range []struct {
		shards, n, short int
	}{
		{shards: 1, n: 50, short: 8},
		{shards: 2, n: 12, short: 8},
	} {
		t.Run(fmt.Sprintf("shards=%d", row.shards), func(t *testing.T) {
			cfg := fuzzTestConfig(row.n)
			if testing.Short() {
				cfg.N = row.short
			}
			cfg.Recovery, cfg.Shards = true, row.shards
			r := RunFuzz(cfg)
			if r.N != cfg.N || r.Events == 0 {
				t.Fatalf("ran %d seeds / %d events, want %d seeds and a non-empty replay", r.N, r.Events, cfg.N)
			}
			for _, f := range r.Failures {
				t.Errorf("seed %d (%s, %s): %v — reproduce: vcabench -fuzz 1 -seed %d -recovery on -shards %d",
					f.Seed, f.Profile, f.Scenario, f.Violations, f.Seed, row.shards)
			}
		})
	}
}

// TestRunFuzzDeterministicAcrossParallelism: the fuzz verdict — and its
// printed form — is byte-identical at any worker count, so a CI failure
// always reproduces locally whatever the runner's core count.
func TestRunFuzzDeterministicAcrossParallelism(t *testing.T) {
	out := func(par int) string {
		setParallelism(t, par)
		cfg := fuzzTestConfig(12)
		var buf strings.Builder
		PrintFuzz(&buf, RunFuzz(cfg), cfg.Recovery)
		return buf.String()
	}
	seq, par := out(1), out(4)
	if seq != par {
		t.Errorf("fuzz output differs across parallelism:\n-- parallel 1 --\n%s-- parallel 4 --\n%s", seq, par)
	}
}

// TestFuzzProfileFollowsSeed pins the repro contract's second half: the
// profile is a function of the seed, not the trial index, so a one-seed
// rerun replays the same VCA the batch used.
func TestFuzzProfileFollowsSeed(t *testing.T) {
	batch := RunFuzz(FuzzConfig{N: 3, Seed: 100, Participants: 4, Dur: 15 * time.Second})
	for i := int64(0); i < 3; i++ {
		single := RunFuzz(FuzzConfig{N: 1, Seed: 100 + i, Participants: 4, Dur: 15 * time.Second})
		if len(batch.Failures) != 0 || len(single.Failures) != 0 {
			t.Fatalf("unexpected failures: batch %v single %v", batch.Failures, single.Failures)
		}
	}
	// The profile choice is derived, not stored, on clean runs; assert the
	// mapping directly.
	profiles := []*vca.Profile{vca.Meet(), vca.Teams(), vca.Zoom()}
	for seed := int64(100); seed < 103; seed++ {
		want := profiles[int(uint64(seed)%3)]
		got := profiles[int(uint64(seed)%uint64(len(profiles)))]
		if got.Name != want.Name {
			t.Fatalf("seed %d maps to %s in a batch but %s alone", seed, want.Name, got.Name)
		}
	}
}

// TestDynamicGeneratedScenarioDeterministic is the link-model
// determinism regression (satellite 3): a generated scenario exercising
// GE loss, cellular traces and bufferbloat through RunDynamic must print
// byte-identically at -parallel 1 and 4.
func TestDynamicGeneratedScenarioDeterministic(t *testing.T) {
	// Seeds are cheap; pick a couple so at least one timeline carries a
	// link-model motif whatever the generator composes.
	seeds := []int64{3, 7}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, genSeed := range seeds {
		sc := scenario.Generate(genSeed, scenario.GenConfig{
			Participants: 8, Regions: 2, InterBps: 10e6, Dur: 60 * time.Second,
		})
		out := func(par int) string {
			setParallelism(t, par)
			cfg := DynamicConfig{
				Profile:      vca.Meet(),
				Scenario:     sc,
				Participants: 8,
				Regions:      2,
				InterMbps:    10,
				Reps:         2,
				Dur:          60 * time.Second,
				Warmup:       10 * time.Second,
				Seed:         5,
			}
			var buf strings.Builder
			PrintDynamic(&buf, RunDynamic(cfg))
			return buf.String()
		}
		seq, par := out(1), out(4)
		if seq != par {
			t.Errorf("gen-%d output differs across parallelism:\n-- parallel 1 --\n%s-- parallel 4 --\n%s", genSeed, seq, par)
		}
	}
}
