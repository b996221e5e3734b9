package scenario

import (
	"fmt"
	"time"

	"vcalab/internal/vca"
)

// The canned scenarios: parameterized, deterministic timelines covering
// the dynamic-condition axes the paper points at but its two-laptop lab
// could not drive — membership churn storms, WAN capacity cliffs, region
// partitions, and measured-trace replay. Participants follow the cascade
// naming convention ("c1".."cN", round-robin across regions, c1 the
// instrumented client — never churned).

// ChurnStorm builds three waves of interleaved leaves and rejoins over an
// n-participant roster. Each wave takes every third participant (offset
// by the wave index, so consecutive waves churn different region mixes),
// staggers their leaves 200 ms apart, and rejoins them in the same
// stagger six seconds later. Each rejoiner comes back under its own ID,
// exercising the fresh rebuild of every table slot that ID indexes.
func ChurnStorm(n int) Scenario {
	sc := Scenario{Name: "churn-storm"}
	for wave := 0; wave < 3; wave++ {
		base := 20*time.Second + time.Duration(wave)*15*time.Second
		var members []string
		for i := 2; i <= n; i++ {
			if i%3 == wave%3 {
				members = append(members, fmt.Sprintf("c%d", i))
			}
		}
		for k, who := range members {
			off := time.Duration(k) * 200 * time.Millisecond
			sc.Events = append(sc.Events, Leave(base+off, who))
			rj := Rejoin(base+6*time.Second+off, who)
			if k == len(members)-1 {
				rj.Label = fmt.Sprintf("wave%d-rejoined", wave+1)
				rj.Recover = true
			}
			sc.Events = append(sc.Events, rj)
		}
	}
	return sc
}

// CapacityCliff drops every inter-region link to cliffBps at t=30s and
// restores restoreBps at t=50s — the §4 transient disruption generalized
// from one client's access link to the relay mesh's WAN fabric.
func CapacityCliff(cliffBps, restoreBps float64) Scenario {
	cliff := ShapeLink(30*time.Second, LinkRef{Kind: LinkInterAll}, Shape{SetRate: true, RateBps: cliffBps})
	cliff.Label = "cliff"
	restore := ShapeLink(50*time.Second, LinkRef{Kind: LinkInterAll}, Shape{SetRate: true, RateBps: restoreBps})
	restore.Label = "cliff-restored"
	restore.Recover = true
	return Scenario{Name: "capacity-cliff", Events: []Event{cliff, restore}}
}

// RegionPartitionAndHeal severs both directions between regions a and b
// with 100% loss at t=30s and heals them at t=45s, leaving capacity
// untouched — a WAN blackout rather than congestion, the failure mode a
// relay mesh must ride out.
func RegionPartitionAndHeal(a, b int) Scenario {
	cut := ShapeLink(30*time.Second, LinkRef{Kind: LinkInterPair, From: a, To: b},
		Shape{SetImpair: true, LossProb: 1})
	cut.Label = fmt.Sprintf("partition-r%d-r%d", a, b)
	heal := ShapeLink(45*time.Second, LinkRef{Kind: LinkInterPair, From: a, To: b},
		Shape{SetImpair: true, LossProb: 0})
	heal.Label = "healed"
	heal.Recover = true
	return Scenario{Name: "region-partition", Events: []Event{cut, heal}}
}

// TraceReplay rides the instrumented client's uplink through a drive-style
// capacity trace (the paper's §8 "other network contexts"): stepping down
// through cellular-grade rates to a deep dip and back up. The trace
// starts at 18 s — past the dynamic experiment's warmup, so the recovery
// nominal is measured on the steady state, not the slow-start ramp.
func TraceReplay(client string) Scenario {
	ref := LinkRef{Kind: LinkClientUp, Client: client}
	events := Trace(ref, "trace", []TraceStep{
		{At: 18 * time.Second, RateBps: 2e6},
		{At: 26 * time.Second, RateBps: 0.8e6},
		{At: 34 * time.Second, RateBps: 0.35e6},
		{At: 42 * time.Second, RateBps: 1.5e6},
		{At: 50 * time.Second, RateBps: 0.6e6},
		{At: 58 * time.Second, RateBps: 0},
	})
	events[len(events)-1].Label = "trace-restored"
	events[len(events)-1].Recover = true
	return Scenario{Name: "trace-replay", Events: events}
}

// SpeakerFlip pins the speaker at t=25s and returns to gallery at t=45s —
// the §6 modality change applied mid-call instead of per-sweep.
func SpeakerFlip() Scenario {
	pin := Mode(25*time.Second, vca.Speaker)
	pin.Label = "speaker-pinned"
	unpin := Mode(45*time.Second, vca.Gallery)
	unpin.Label = "gallery-restored"
	unpin.Recover = true
	return Scenario{Name: "speaker-flip", Events: []Event{pin, unpin}}
}

// CannedNames lists the canned scenario names in their canonical order.
func CannedNames() []string {
	return []string{"churn-storm", "capacity-cliff", "region-partition", "trace-replay", "speaker-flip"}
}

// Canned instantiates a canned scenario by name for a topology of n
// participants and the given nominal inter-region capacity (bps). The
// region pair for the partition scenario is fixed to (0, 1) — every
// multi-region mesh has both.
func Canned(name string, n int, interBps float64) (Scenario, error) {
	switch name {
	case "churn-storm":
		return ChurnStorm(n), nil
	case "capacity-cliff":
		return CapacityCliff(interBps/10, interBps), nil
	case "region-partition":
		return RegionPartitionAndHeal(0, 1), nil
	case "trace-replay":
		return TraceReplay("c1"), nil
	case "speaker-flip":
		return SpeakerFlip(), nil
	}
	return Scenario{}, fmt.Errorf("unknown canned scenario %q (have %v)", name, CannedNames())
}
