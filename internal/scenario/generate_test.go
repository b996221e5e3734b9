package scenario

import (
	"reflect"
	"testing"
	"time"
)

// TestGenerateDeterministic: equal (seed, cfg) yield the identical event
// list — the property the fuzz repro contract (`-fuzz 1 -seed S`) rests
// on — while adjacent seeds compose different timelines.
func TestGenerateDeterministic(t *testing.T) {
	cfg := GenConfig{Participants: 8, Regions: 2, Dur: 60 * time.Second}
	a, b := Generate(17, cfg), Generate(17, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed generated different scenarios")
	}
	c := Generate(18, cfg)
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Error("seeds 17 and 18 generated identical event lists")
	}
}

// TestGenerateValidity sweeps many seeds and asserts the generator's
// contract: Validate passes, every event lands inside [Start, Dur-2s],
// the instrumented client c1 is never churned, and at least one event
// carries the Recover mark the dynamic experiment measures.
func TestGenerateValidity(t *testing.T) {
	cfg := GenConfig{Participants: 8, Regions: 2, Dur: 60 * time.Second}
	for seed := int64(0); seed < 100; seed++ {
		sc := Generate(seed, cfg)
		if err := sc.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(sc.Events) == 0 {
			t.Fatalf("seed %d: empty scenario", seed)
		}
		recovers := 0
		for _, ev := range sc.Events {
			if ev.At < 10*time.Second || ev.At > 58*time.Second {
				t.Fatalf("seed %d: event %q at %v outside [10s, 58s]", seed, ev.Label, ev.At)
			}
			if (ev.Op == OpLeave || ev.Op == OpRejoin) && ev.Who == "c1" {
				t.Fatalf("seed %d: generator churned c1", seed)
			}
			if ev.Recover {
				recovers++
			}
		}
		if recovers == 0 {
			t.Fatalf("seed %d: no Recover mark", seed)
		}
	}
}

// TestGenerateFitsShortCalls is the regression for the span-overflow bug:
// a long motif (a 25 s cellular trace, say) drawn for a short call used
// to land its restore event past Dur-2s, leaving the timeline unapplied.
// Spans must clamp to the available room at any duration.
func TestGenerateFitsShortCalls(t *testing.T) {
	for _, dur := range []time.Duration{14 * time.Second, 20 * time.Second, 30 * time.Second} {
		cfg := GenConfig{Participants: 6, Regions: 2, Dur: dur}
		for seed := int64(0); seed < 50; seed++ {
			sc := Generate(seed, cfg)
			if err := sc.Validate(); err != nil {
				t.Fatalf("dur %v seed %d: %v", dur, seed, err)
			}
			for _, ev := range sc.Events {
				if ev.At > dur-2*time.Second {
					t.Fatalf("dur %v seed %d: event %q at %v past %v", dur, seed, ev.Label, ev.At, dur-2*time.Second)
				}
			}
		}
	}
}

// TestGenerateChurnAlternates: per participant, leaves and rejoins
// strictly alternate and every leave is rejoined before the end — the
// precondition for the registry's dense-ID invariant to hold at drain.
func TestGenerateChurnAlternates(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		sc := Generate(seed, GenConfig{Participants: 8, Regions: 2, Dur: 60 * time.Second})
		gone := map[string]bool{}
		for _, ev := range sc.Events {
			switch ev.Op {
			case OpLeave:
				if gone[ev.Who] {
					t.Fatalf("seed %d: %s left twice", seed, ev.Who)
				}
				gone[ev.Who] = true
			case OpRejoin:
				if !gone[ev.Who] {
					t.Fatalf("seed %d: %s rejoined without leaving", seed, ev.Who)
				}
				delete(gone, ev.Who)
			}
		}
		if len(gone) != 0 {
			t.Fatalf("seed %d: participants still gone at the end: %v", seed, gone)
		}
	}
}

// TestGenerateCellularHandoversResume is the cellular motif's drain
// guarantee: every handover pause is followed by its resume on the same
// uplink, no later than the episode's end (one second before its
// "cell-restored" event), and every episode event lies in [genStart,
// Dur-2s], at short call durations too.
func TestGenerateCellularHandoversResume(t *testing.T) {
	episode := map[string]bool{"cellular": true, "handover": true, "handover-resumed": true, "cell-restored": true}
	handovers := 0
	for _, dur := range []time.Duration{14 * time.Second, 20 * time.Second, 30 * time.Second, 60 * time.Second} {
		for seed := int64(0); seed < 50; seed++ {
			evs := Generate(seed, GenConfig{Participants: 6, Regions: 2, Dur: dur}).Events
			for i, ev := range evs {
				if !episode[ev.Label] {
					continue
				}
				if ev.At < genStart || ev.At > dur-2*time.Second {
					t.Fatalf("dur %v seed %d: %q at %v outside [%v, %v]", dur, seed, ev.Label, ev.At, genStart, dur-2*time.Second)
				}
				if ev.Label != "handover" {
					continue
				}
				handovers++
				j := i + 1
				for j < len(evs) && evs[j].Label != "cell-restored" {
					j++
				}
				if j == len(evs) {
					t.Fatalf("dur %v seed %d: handover at %v in an episode with no end", dur, seed, ev.At)
				}
				resume, end := evs[i+1], evs[j].At-time.Second
				if !ev.Shape.Paused || resume.Label != "handover-resumed" || resume.Shape.Paused ||
					resume.Ref != ev.Ref || resume.At < ev.At || resume.At > end {
					t.Fatalf("dur %v seed %d: handover at %v not resumed by the episode's end %v (next event %q at %v)",
						dur, seed, ev.At, end, resume.Label, resume.At)
				}
			}
		}
	}
	if handovers == 0 {
		t.Fatal("the sweep generated no handover: the contract went unchecked")
	}
}
