package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestValidateFlags pins the fail-fast behaviour of the flag validation
// helper: a negative -parallel and a non-positive -reps used to be
// silently coerced, and bad -experiment/-scenario values must exit
// with a clear message instead of panicking or running the wrong thing.
// Observability flags follow the same contract: unwritable -trace paths
// and non-positive -obs-interval fail before any sweep burns time.
func TestValidateFlags(t *testing.T) {
	okObs := obsFlags{interval: time.Second}
	writable := filepath.Join(t.TempDir(), "out.jsonl")
	cases := []struct {
		name                         string
		exp, sc                      string
		recovery                     string // "" = off
		parallel, reps, fuzz, shards int
		obs                          obsFlags
		wantErrMentions              string // "" = must pass
	}{
		{"defaults ok", "table2", "all", "off", 0, 3, 0, 1, okObs, ""},
		{"all ok", "all", "all", "off", 4, 1, 0, 1, okObs, ""},
		{"dynamic + canned scenario ok", "dynamic", "churn-storm", "off", 0, 3, 0, 1, okObs, ""},
		{"dynamic + all scenarios ok", "dynamic", "all", "off", 0, 3, 0, 1, okObs, ""},
		{"dynamic + generated scenario ok", "dynamic", "gen", "off", 0, 3, 0, 1, okObs, ""},
		{"dynamic + seeded generated scenario ok", "dynamic", "gen:42", "off", 0, 3, 0, 1, okObs, ""},
		{"dynamic + negative gen seed ok", "dynamic", "gen:-7", "off", 0, 3, 0, 1, okObs, ""},
		{"fuzz ok", "ignored", "ignored", "off", 0, 3, 50, 1, okObs, ""},
		{"sharded scale ok", "scale", "all", "off", 0, 3, 0, 3, okObs, ""},
		{"sharded dynamic ok", "dynamic", "all", "off", 0, 3, 0, 2, okObs, ""},
		{"zero shards ok (same as 1)", "scale", "all", "off", 0, 3, 0, 0, okObs, ""},
		{"oversubscribed shards ok (capped)", "scale", "all", "off", 0, 3, 0, 64, okObs, ""},
		{"dynamic + trace ok", "dynamic", "all", "off", 0, 3, 0, 1,
			obsFlags{trace: writable, interval: time.Second}, ""},
		{"dynamic + metrics ok", "dynamic", "all", "off", 0, 3, 0, 1,
			obsFlags{metrics: writable, interval: time.Second}, ""},
		{"cpuprofile anywhere ok", "table2", "all", "off", 0, 3, 0, 1,
			obsFlags{cpuprofile: writable, interval: time.Second}, ""},

		{"negative parallel", "table2", "all", "off", -1, 3, 0, 1, okObs, "-parallel"},
		{"zero reps", "table2", "all", "off", 0, 0, 0, 1, okObs, "-reps"},
		{"negative reps", "table2", "all", "off", 0, -3, 0, 1, okObs, "-reps"},
		{"negative fuzz", "table2", "all", "off", 0, 3, -1, 1, okObs, "-fuzz"},
		{"negative shards", "scale", "all", "off", 0, 3, 0, -2, okObs, "-shards"},
		{"unknown experiment", "fig99", "all", "off", 0, 3, 0, 1, okObs, "unknown experiment"},
		{"unknown scenario", "dynamic", "nope", "off", 0, 3, 0, 1, okObs, "-scenario"},
		{"malformed gen seed", "dynamic", "gen:xyz", "off", 0, 3, 0, 1, okObs, "-scenario"},
		{"scenario ignored outside dynamic", "table2", "nope", "off", 0, 3, 0, 1, okObs, ""},

		{"zero obs interval", "dynamic", "all", "off", 0, 3, 0, 1,
			obsFlags{trace: writable}, "-obs-interval"},
		{"negative obs interval", "dynamic", "all", "off", 0, 3, 0, 1,
			obsFlags{metrics: writable, interval: -time.Second}, "-obs-interval"},
		{"unwritable trace path", "dynamic", "all", "off", 0, 3, 0, 1,
			obsFlags{trace: "/nonexistent-dir/t.jsonl", interval: time.Second}, "-trace"},
		{"unwritable metrics path", "dynamic", "all", "off", 0, 3, 0, 1,
			obsFlags{metrics: "/nonexistent-dir/m.jsonl", interval: time.Second}, "-metrics"},
		{"unwritable cpuprofile path", "table2", "all", "off", 0, 3, 0, 1,
			obsFlags{cpuprofile: "/nonexistent-dir/cpu.pprof", interval: time.Second}, "-cpuprofile"},
		{"trace on a paper table ok", "table2", "all", "off", 0, 3, 0, 1,
			obsFlags{trace: writable, interval: time.Second}, ""},
		{"trace + metrics on all ok", "all", "all", "off", 0, 3, 0, 1,
			obsFlags{trace: writable, metrics: writable, interval: time.Second}, ""},
		{"trace with fuzz ok", "ignored", "ignored", "off", 0, 3, 10, 1,
			obsFlags{trace: writable, interval: time.Second}, ""},

		{"recovery impairment ok", "impairment", "all", "on", 0, 3, 0, 1, okObs, ""},
		{"recovery scale ok", "scale", "all", "on", 0, 3, 0, 2, okObs, ""},
		{"recovery dynamic ok", "dynamic", "region-partition", "on", 0, 3, 0, 1, okObs, ""},
		{"recovery fuzz ok", "ignored", "ignored", "on", 0, 3, 50, 1, okObs, ""},
		{"recovery bad value", "impairment", "all", "maybe", 0, 3, 0, 1, okObs, "-recovery"},
		{"recovery on paper figure", "fig1a", "all", "on", 0, 3, 0, 1, okObs, "-recovery"},
		{"recovery on table2", "table2", "all", "on", 0, 3, 0, 1, okObs, "-recovery"},
		{"recovery on all", "all", "all", "on", 0, 3, 0, 1, okObs, "-recovery"},
	}
	for _, c := range cases {
		err := validateFlags(c.exp, c.sc, c.recovery, c.parallel, c.reps, c.fuzz, c.shards, c.obs)
		if c.wantErrMentions == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: no error, want one mentioning %q", c.name, c.wantErrMentions)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErrMentions) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantErrMentions)
		}
	}
}

// TestRegistryCoversFlagDocs keeps the registry and the -experiment flag
// help in sync enough for validateFlags to be the single gate.
func TestRegistryCoversFlagDocs(t *testing.T) {
	for _, id := range []string{"table2", "fig1a", "fig15", "impairment", "scale", "dynamic"} {
		if !knownExperiment(id) {
			t.Errorf("experiment registry lost %q", id)
		}
	}
	if knownExperiment("all") {
		t.Error("`all` must not be a registry entry (it is the meta-id)")
	}
}

// TestExperimentsDocMatchesList keeps EXPERIMENTS.md from drifting from
// the binary: the ids -list enumerates must be exactly the ids the
// document shows an `-experiment <id>` invocation for, apart from `all`.
func TestExperimentsDocMatchesList(t *testing.T) {
	var list bytes.Buffer
	printList(&list)
	var listed []string
	for _, line := range strings.Split(strings.TrimSpace(list.String()), "\n")[1:] {
		if id := strings.Fields(line)[0]; id != "all" {
			listed = append(listed, id)
		}
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	var documented []string
	for _, m := range regexp.MustCompile(`-experiment ([a-z0-9]+)`).FindAllStringSubmatch(string(doc), -1) {
		if m[1] != "all" {
			documented = append(documented, m[1])
		}
	}
	slices.Sort(listed)
	slices.Sort(documented)
	if documented = slices.Compact(documented); !slices.Equal(listed, documented) {
		t.Errorf("-list ids %v, EXPERIMENTS.md invokes %v", listed, documented)
	}
	if len(listed) != 20 {
		t.Errorf("-list has %d ids, want the 17 paper figures and 3 extensions", len(listed))
	}
}
