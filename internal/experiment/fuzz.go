package experiment

import (
	"fmt"
	"io"
	"time"

	"vcalab/internal/scenario"
	"vcalab/internal/vca"
)

// FuzzConfig drives the scenario-fuzz smoke: N seeded generated scenarios
// (internal/scenario.Generate) replayed through the invariant harness,
// trials in parallel. Seeds are consecutive (Seed, Seed+1, ...), so a
// failure printed as seed S reproduces exactly with `-fuzz 1 -seed S`.
type FuzzConfig struct {
	// N is how many seeds to replay.
	N int
	// Seed is the first scenario seed.
	Seed int64
	// Participants/Dur describe the harness call (defaults 8 / 45s).
	Participants int
	Dur          time.Duration
	// Shards runs every replay region-sharded (<= 1 keeps the
	// sequential engine); the harness asserts its invariants per shard.
	Shards int
	// Recovery enables packet-level loss recovery on every replayed
	// call, adding the RTX-clone and NACK-queue conservation invariants.
	Recovery bool
}

func (c *FuzzConfig) defaults() {
	if c.N == 0 {
		c.N = 50
	}
	if c.Participants == 0 {
		c.Participants = 8
	}
	if c.Dur == 0 {
		c.Dur = 45 * time.Second
	}
}

// FuzzFailure is one seed whose replay violated an invariant.
type FuzzFailure struct {
	Seed       int64
	Profile    string
	Scenario   string
	Events     int
	Violations []scenario.Violation
}

// FuzzResult aggregates one fuzz run.
type FuzzResult struct {
	N      int
	Events int // total events replayed across all scenarios
	// Failures lists violating seeds in seed order; empty means the whole
	// batch upheld every invariant.
	Failures []FuzzFailure
}

// RunFuzz replays N seeded generated scenarios through the invariant
// harness, fanning seeds across the worker pool. Results aggregate in
// seed order, so output is byte-identical at any parallelism.
func RunFuzz(cfg FuzzConfig) FuzzResult {
	cfg.defaults()
	// Profiles cycle per seed (seed S runs profiles[S % 3]) so every VCA
	// sees a share of the space.
	profiles := threeVCAs()
	trials := repeat("fuzz", fuzzCapture(), cfg.N, func(o *trialObs, i int) FuzzFailure {
		seed := cfg.Seed + int64(i)
		// The profile is a function of the seed (not the trial index), so
		// `-fuzz 1 -seed S` replays a failure under the same VCA.
		prof := profiles[int(uint64(seed)%uint64(len(profiles)))]
		sc := scenario.Generate(seed, scenario.GenConfig{
			Participants: cfg.Participants,
			Regions:      fuzzRegions,
			InterBps:     fuzzInterMbps * 1e6,
			Dur:          cfg.Dur,
		})
		return FuzzFailure{Seed: seed, Profile: prof.Name, Scenario: sc.Name, Events: len(sc.Events),
			Violations: cfg.replay(o, sc, prof, seed)}
	})

	res := FuzzResult{N: cfg.N}
	for _, t := range trials {
		res.Events += t.Events
		if len(t.Violations) > 0 {
			res.Failures = append(res.Failures, t)
		}
	}
	return res
}

// fuzzCapture is the capture every fuzz replay runs under. scenario.Check
// reads the engines' tracers, so it is the installed capture with Trace
// forced on, or unwritten rings of 1<<12 when none is installed.
func fuzzCapture() *capture {
	poolMu.Lock()
	defer poolMu.Unlock()
	cp := capture{ObsConfig: ObsConfig{TraceCap: 1 << 12}}
	if defaultCapture != nil {
		cp = *defaultCapture
	}
	cp.Trace = true
	return &cp
}

// replay runs sc on the cascade trial every runner builds for cfg's call,
// traced under o, and returns the invariants it violated. An invalid
// scenario is a generator bug, not a sim bug: it is reported as a
// violation, so the fuzz run names its seed.
func (cfg *FuzzConfig) replay(o *trialObs, sc scenario.Scenario, prof *vca.Profile, seed int64) []scenario.Violation {
	if err := sc.Validate(); err != nil {
		return []scenario.Violation{{Invariant: "validate", Detail: err.Error()}}
	}
	t := newMeshTrial(o, seed, prof, cfg.Participants, fuzzRegions, fuzzInterMbps, cfg.Shards, cfg.Recovery)
	defer t.mesh.Close()
	t.timeline = scenario.New(t.eng, t.call, scenario.MeshLinks(t.mesh.Mesh), sc)
	t.start()
	t.run(cfg.Dur)
	return scenario.Check(t.mesh, t.timeline, cfg.Dur)
}

// PrintFuzz writes a fuzz run's verdict; each failure carries the exact
// flags that reproduce it locally. recovery mirrors the run's recovery
// toggle so the reproduce line replays the same configuration.
func PrintFuzz(w io.Writer, r FuzzResult, recovery bool) {
	fmt.Fprintf(w, "# scenario fuzz: %d generated scenarios, %d events replayed\n", r.N, r.Events)
	if len(r.Failures) == 0 {
		if recovery {
			fmt.Fprintf(w, "all invariants held (event pool, ID aliasing, freeze accounting, packet pool, drop conservation, RTX/NACK conservation)\n")
		} else {
			fmt.Fprintf(w, "all invariants held (event pool, ID aliasing, freeze accounting, packet pool, drop conservation)\n")
		}
		return
	}
	repro := ""
	if recovery {
		repro = " -recovery on"
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "FAIL seed %d (%s, %s, %d events):\n", f.Seed, f.Profile, f.Scenario, f.Events)
		for _, v := range f.Violations {
			fmt.Fprintf(w, "  %s\n", v)
		}
		fmt.Fprintf(w, "  reproduce: vcabench -fuzz 1 -seed %d%s\n", f.Seed, repro)
	}
	fmt.Fprintf(w, "%d/%d seeds violated invariants\n", len(r.Failures), r.N)
}
