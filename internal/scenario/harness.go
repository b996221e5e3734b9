package scenario

import (
	"fmt"
	"time"

	"vcalab/internal/cascade"
	"vcalab/internal/obs"
)

// Violation is one failed invariant, with enough detail to debug the
// offending replay.
type Violation struct {
	Invariant string // short id: "event-pool", "id-aliasing", ...
	Detail    string
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

func violationf(out []Violation, inv, format string, args ...any) []Violation {
	return append(out, Violation{Invariant: inv, Detail: fmt.Sprintf(format, args...)})
}

// Check is the invariant harness. Once any scenario — canned,
// hand-written or generated — has run as tl on t, a traced cascade trial
// whose call stopped at dur, Check drains t and asserts the structural
// invariants every vcalab simulation owes, whatever the workload; each
// check below says what it holds. It returns every violation (nil when
// all hold). It runs on the trial a runner built, so the fuzz smoke
// (vcabench -fuzz, CI) replays seeds through the same build, trace and
// capture path as every other experiment.
func Check(t *cascade.Trial, tl *Timeline, dur time.Duration) []Violation {
	var out []Violation
	mesh, call := t.Mesh, t.Call
	// The timeline finished: no event was scheduled past the run.
	if !tl.Done() {
		out = violationf(out, "timeline",
			"%d of %d events unapplied at t=%v", len(tl.events)-tl.Applied(), len(tl.events), dur)
	}

	// Drain: with the call stopped, every in-flight packet, model event
	// and cancelled ticker must come home — on every engine of the trial
	// (the control engine first, then its shards), and every envelope a
	// shard boundary re-homed.
	t.Drain()
	for k, e := range t.Engines() {
		if n := e.Live(); n != 0 {
			out = violationf(out, "event-pool", "engine %d: %d pooled engine events live after drain", k, n)
		}
		if n := e.Pending(); n != 0 {
			out = violationf(out, "event-pool", "engine %d: %d events still pending after drain", k, n)
		}
	}
	for _, l := range t.BoundaryLinks() {
		if n := l.BoundaryPoolLive(); n != 0 {
			out = violationf(out, "packet-pool", "boundary link %s leaks %d envelopes", l.Name(), n)
		}
	}
	// The engines' rings may wrap on a loss-heavy scenario; the per-kind
	// counts the checks below read are cumulative, so that is fine. Merged
	// only now, with every engine dry: a merge is a snapshot.
	rings := make([]*obs.Tracer, len(t.Engines()))
	for i, e := range t.Engines() {
		rings[i] = e.Tracer()
	}
	tracer := obs.Merge(rings...)

	// Registry density and recycled-ID aliasing.
	if got, want := call.IDSpace(), len(call.Clients)+len(call.Servers); got != want {
		out = violationf(out, "id-space",
			"ID space %d, want %d (%d clients + %d SFUs): churn grew the registry", got, want, len(call.Clients), len(call.Servers))
	}
	for i, cl := range call.Clients {
		seen := map[string]bool{}
		for _, origin := range cl.Origins() {
			if origin == "" {
				out = violationf(out, "id-aliasing", "client %d holds a receiver bound to a freed ID", i)
				continue
			}
			if seen[origin] {
				out = violationf(out, "id-aliasing", "client %d holds duplicate receivers for %q", i, origin)
			}
			seen[origin] = true
		}

		// Freeze and recovery accounting sanity.
		for _, origin := range cl.Origins() {
			r := cl.Receiver(origin)
			if fr := r.FreezeRatio(); fr < 0 || fr > 1 {
				out = violationf(out, "freeze-accounting",
					"client %d receiver %s freeze ratio %v outside [0,1]", i, origin, fr)
			}
			if ft := r.FreezeTime(); ft < 0 || ft > dur {
				out = violationf(out, "freeze-accounting",
					"client %d receiver %s freeze time %v outside [0, %v]", i, origin, ft, dur)
			}
			if r.FreezeCount() < 0 {
				out = violationf(out, "freeze-accounting",
					"client %d receiver %s negative freeze count", i, origin)
			}
		}
	}

	// Loss-recovery conservation, on every replay: with recovery off each
	// quantity below is structurally zero. Client stop flushed every
	// jitter buffer, so no NACK may still be pending anywhere.
	if n := call.PendingNacks(); n != 0 {
		out = violationf(out, "nack-queue", "%d NACKs pending after Stop", n)
	}
	// The SFUs never answer more retransmissions than seqs were
	// NACKed at them...
	nacks, rtx := call.NackRTXTotals()
	if rtx > nacks {
		out = violationf(out, "rtx-conservation",
			"SFUs answered %d retransmissions for %d NACKed seqs", rtx, nacks)
	}
	// ...and no client can see more RTX deliveries than NACKs it
	// sent (EvNackSent fires per seq per retry, EvRTXDeliver per
	// retransmission that healed a gap). Counts are cumulative
	// across ring wraparound, so this holds on loss-heavy replays.
	nackEv, rtxEv := tracer.Count(obs.EvNackSent), tracer.Count(obs.EvRTXDeliver)
	if rtxEv > nackEv {
		out = violationf(out, "rtx-conservation",
			"traced %d RTX deliveries for %d NACKs sent", rtxEv, nackEv)
	}
	// Retained-packet conservation: draining the RTX rings lets go
	// of every reference a slot ever took.
	call.DrainRecovery()
	if n := call.RTXClonesLive(); n != 0 {
		out = violationf(out, "rtx-conservation",
			"%d RTX ring references live after DrainRecovery", n)
	}

	// Drop conservation: every packet the links counted as dropped must
	// have produced exactly one traced drop event, and vice versa. A
	// drop path that bypasses the instrumented Link.drop (or a tracer
	// hook that double-fires) shows up here.
	var linkDrops uint64
	for _, l := range mesh.Links() {
		linkDrops += l.Drops
	}
	if traced := tracer.Count(obs.EvDrop); traced != linkDrops {
		out = violationf(out, "drop-conservation",
			"tracers recorded %d drop events, link counters total %d", traced, linkDrops)
	}

	// Control-message conservation: every pooled receiver report, NACK
	// and TWCC report went back to its region's pool exactly once — by its
	// consumer, by a netem drop, or by the shard-boundary transfer.
	for r := range mesh.SFUs {
		if n := call.ControlMsgsLive(r); n != 0 {
			out = violationf(out, "control-pool",
				"region %d: %d pooled control messages live after drain (positive: leaked, negative: released twice)", r, n)
		}
	}

	// Media-packet conservation: with the engine dry and the RTX rings
	// drained, every media packet is back in its region's pool — none in
	// flight, none still retained by a ring slot, none filed twice.
	for r := range mesh.SFUs {
		if n := call.MediaPacketsLive(r); n != 0 {
			out = violationf(out, "media-pool",
				"region %d: %d pooled media packets live after drain (positive: leaked, negative: released twice)", r, n)
		}
	}

	// Packet-pool conservation across every host of the topology.
	for _, h := range mesh.SFUs {
		if n := h.PoolLive(); n != 0 {
			out = violationf(out, "packet-pool", "host %s leaks %d pooled packets", h.Name, n)
		}
	}
	for _, region := range mesh.Clients {
		for _, h := range region {
			if n := h.PoolLive(); n != 0 {
				out = violationf(out, "packet-pool", "host %s leaks %d pooled packets", h.Name, n)
			}
		}
	}
	return out
}
