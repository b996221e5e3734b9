package main

import (
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"vcalab"
)

// obsFlags bundles the observability/profiling flags for validation.
type obsFlags struct {
	trace      string // -trace FILE
	metrics    string // -metrics FILE
	interval   time.Duration
	cpuprofile string
	memprofile string
}

// validateFlags checks the cross-flag invariants once, right after
// flag.Parse and before any experiment runs, so every bad invocation
// fails fast with one clear message and exit code 2: a negative -parallel,
// a bad -scenario or an unwritable -trace path fails here, not after
// other sweeps have run.
func validateFlags(exp, scenarioName, recovery string, parallel, reps, fuzz, shards int, obs obsFlags) error {
	if parallel < 0 {
		return fmt.Errorf("-parallel must be >= 0 (0 = all cores, 1 = sequential); got %d", parallel)
	}
	switch recovery {
	case "on", "off":
	default:
		return fmt.Errorf("-recovery must be on or off; got %q", recovery)
	}
	if recovery == "on" && fuzz == 0 {
		// The paper-reproduction figures run the VCAs as measured — no
		// recovery knob — so silently ignoring the flag there would
		// misrepresent what ran. Only the extension workloads take it.
		switch exp {
		case "impairment", "scale", "dynamic":
		default:
			return fmt.Errorf("-recovery on applies to -experiment impairment/scale/dynamic and -fuzz; got -experiment %s", exp)
		}
	}
	if shards < 0 {
		return fmt.Errorf("-shards must be >= 0 (<= 1 = one engine per trial; capped at the region count); got %d", shards)
	}
	if reps < 1 {
		return fmt.Errorf("-reps must be >= 1; got %d", reps)
	}
	if fuzz < 0 {
		return fmt.Errorf("-fuzz must be >= 0 (N generated scenarios to replay); got %d", fuzz)
	}
	if obs.interval <= 0 {
		return fmt.Errorf("-obs-interval must be positive; got %v", obs.interval)
	}
	for _, p := range []struct{ flag, path string }{
		{"-trace", obs.trace}, {"-metrics", obs.metrics},
		{"-cpuprofile", obs.cpuprofile}, {"-memprofile", obs.memprofile},
	} {
		if p.path == "" {
			continue
		}
		// Probe writability now; the run opens (and truncates) the file
		// again later, so leaving the probe file behind is harmless.
		f, err := os.OpenFile(p.path, os.O_WRONLY|os.O_CREATE, 0o644)
		if err != nil {
			return fmt.Errorf("%s: cannot write %s: %v", p.flag, p.path, err)
		}
		f.Close()
	}
	if fuzz > 0 {
		return nil // -fuzz ignores -experiment and -scenario
	}
	if exp != "all" && !knownExperiment(exp) {
		return fmt.Errorf("unknown experiment %q (try -list)", exp)
	}
	if exp == "dynamic" && scenarioName != "all" {
		if _, ok, err := genScenarioSeed(scenarioName); ok {
			return err
		}
		if _, err := vcalab.CannedScenario(scenarioName, 2, 1e6); err != nil {
			return fmt.Errorf("unknown -scenario %q (have %s, gen[:seed], or all)",
				scenarioName, strings.Join(vcalab.CannedScenarioNames(), ", "))
		}
	}
	return nil
}

// genScenarioSeed parses a -scenario value of the form `gen` or
// `gen:<seed>`. ok reports whether the name asks for a generated
// scenario at all; err flags a malformed seed suffix. A bare `gen`
// falls back to the -seed flag, so `-scenario gen -seed 7` and
// `-scenario gen:7` replay the same timeline.
func genScenarioSeed(name string) (genSeed int64, ok bool, err error) {
	if name == "gen" {
		return *seed, true, nil
	}
	rest, found := strings.CutPrefix(name, "gen:")
	if !found {
		return 0, false, nil
	}
	s, err := strconv.ParseInt(rest, 10, 64)
	if err != nil {
		return 0, true, fmt.Errorf("bad -scenario %q: seed %q is not an integer", name, rest)
	}
	return s, true, nil
}

// knownExperiment reports whether the id is a paper figure or an extension.
func knownExperiment(id string) bool {
	return slices.ContainsFunc(vcalab.Figures(), func(f vcalab.Figure) bool { return f.ID == id }) ||
		slices.ContainsFunc(extensions(), func(e extension) bool { return e.name == id })
}
