package cc

import (
	"testing"
	"time"
)

// feed runs a controller against a crude virtual bottleneck for the given
// duration and returns the final target. capacity <= 0 means unconstrained.
// The link model: receive rate = min(send, capacity); when send exceeds
// capacity, loss is the excess fraction and queue delay saturates high.
func feed(c Controller, capacity float64, dur time.Duration) float64 {
	const step = 100 * time.Millisecond
	for now := step; now <= dur; now += step {
		send := c.TargetBps() + c.PadRateBps(now)
		fb := Feedback{Now: now, Interval: step, RTT: 20 * time.Millisecond}
		if capacity > 0 && send > capacity {
			fb.ReceiveRateBps = capacity
			fb.LossFraction = (send - capacity) / send
			fb.QueueDelay = 250 * time.Millisecond
		} else {
			fb.ReceiveRateBps = send
			fb.LossFraction = 0
			fb.QueueDelay = 0
		}
		c.OnFeedback(fb)
	}
	return c.TargetBps()
}

func videoRange() Range {
	return Range{MinBps: 100_000, MaxBps: 3_000_000, StartBps: 500_000}
}

func TestFixed(t *testing.T) {
	f := &Fixed{Rate: 64_000}
	f.OnFeedback(Feedback{LossFraction: 0.9, QueueDelay: time.Second})
	if f.TargetBps() != 64_000 {
		t.Errorf("Fixed changed rate: %v", f.TargetBps())
	}
	if f.PadRateBps(0) != 0 {
		t.Error("Fixed pads")
	}
}

func TestRangeClamp(t *testing.T) {
	r := Range{MinBps: 10, MaxBps: 100}
	if r.clamp(5) != 10 || r.clamp(500) != 100 || r.clamp(50) != 50 {
		t.Error("clamp misbehaves")
	}
}

func TestGCCGrowsOnCleanPath(t *testing.T) {
	g := NewGCC(DefaultGCCConfig(videoRange()))
	got := feed(g, 0, 40*time.Second)
	if got < 2_900_000 {
		t.Errorf("unconstrained GCC target = %v, want near max", got)
	}
}

func TestGCCBacksOffOnQueueDelay(t *testing.T) {
	g := NewGCC(DefaultGCCConfig(videoRange()))
	feed(g, 0, 10*time.Second) // ramp up
	// Sudden standing queue: 100 ms delay, receive rate limited.
	g.OnFeedback(Feedback{
		Now: 11 * time.Second, Interval: 100 * time.Millisecond,
		ReceiveRateBps: 400_000, QueueDelay: 100 * time.Millisecond,
	})
	if got := g.TargetBps(); got > 0.85*400_000+1 {
		t.Errorf("after overuse target = %v, want <= beta*receiveRate = %v", got, 0.85*400_000)
	}
}

func TestGCCTracksConstrainedLink(t *testing.T) {
	g := NewGCC(DefaultGCCConfig(videoRange()))
	got := feed(g, 800_000, 60*time.Second)
	// Should hover near but not wildly above capacity.
	if got < 500_000 || got > 1_000_000 {
		t.Errorf("constrained GCC target = %v, want ~0.5-1.0 Mbps around 0.8 capacity", got)
	}
}

func TestGCCAdaptiveThresholdRises(t *testing.T) {
	g := NewGCC(DefaultGCCConfig(videoRange()))
	start := g.gamma
	// Sustained 150 ms queueing (e.g. TCP filling the buffer).
	for now := time.Duration(0); now < 20*time.Second; now += 100 * time.Millisecond {
		g.OnFeedback(Feedback{
			Now: now, Interval: 100 * time.Millisecond,
			ReceiveRateBps: 500_000, QueueDelay: 150 * time.Millisecond,
		})
	}
	if g.gamma <= start {
		t.Errorf("threshold did not adapt: %v -> %v", start, g.gamma)
	}
	if g.gamma < 100*time.Millisecond {
		t.Errorf("threshold = %v after 20s of 150ms queues, want >= 100ms", g.gamma)
	}
}

func TestGCCServerProbesAfterDrop(t *testing.T) {
	g := NewGCC(ServerGCCConfig(Range{MinBps: 100_000, MaxBps: 2_000_000, StartBps: 900_000}))
	// Establish a known-good rate near 0.9 Mbps.
	feed(g, 0, 5*time.Second)
	high := g.TargetBps()
	// Constrain hard to 0.25 for 30 s (loss-driven decrease).
	for now := 5 * time.Second; now < 35*time.Second; now += 100 * time.Millisecond {
		send := g.TargetBps()
		loss := 0.0
		recv := send
		if send > 250_000 {
			loss = (send - 250_000) / send
			recv = 250_000
		}
		g.OnFeedback(Feedback{Now: now, Interval: 100 * time.Millisecond,
			ReceiveRateBps: recv, LossFraction: loss, QueueDelay: 300 * time.Millisecond})
	}
	low := g.TargetBps()
	if low > 400_000 {
		t.Fatalf("constrained server GCC target = %v, want < 0.4 Mbps", low)
	}
	// Restore: clean path. With probing the controller should be back
	// within ~25%% of the prior rate in under 10 simulated seconds.
	var recovered time.Duration
	for now := 35 * time.Second; now < 60*time.Second; now += 100 * time.Millisecond {
		send := g.TargetBps() + g.PadRateBps(now)
		g.OnFeedback(Feedback{Now: now, Interval: 100 * time.Millisecond,
			ReceiveRateBps: send, LossFraction: 0, QueueDelay: 0})
		if g.TargetBps() > 0.75*high && recovered == 0 {
			recovered = now - 35*time.Second
		}
	}
	if recovered == 0 {
		t.Fatalf("server GCC never recovered (target %v, high was %v)", g.TargetBps(), high)
	}
	if recovered > 10*time.Second {
		t.Errorf("server GCC recovery took %v, want < 10s (probing)", recovered)
	}
}

func TestZoomStaircaseRecovery(t *testing.T) {
	nominal := 780_000.0
	z := NewZoomCC(DefaultZoomConfig(Range{MinBps: 100_000, MaxBps: 3_000_000, StartBps: nominal}, nominal))
	// Constrain to 0.25 for 30 s.
	for now := 100 * time.Millisecond; now <= 30*time.Second; now += 100 * time.Millisecond {
		send := z.TargetBps()
		fb := Feedback{Now: now, Interval: 100 * time.Millisecond}
		if send > 250_000 {
			fb.ReceiveRateBps = 250_000
			fb.LossFraction = (send - 250_000) / send
			fb.QueueDelay = 500 * time.Millisecond
		} else {
			fb.ReceiveRateBps = send
		}
		z.OnFeedback(fb)
	}
	if z.TargetBps() > 300_000 {
		t.Fatalf("constrained Zoom target = %v, want <= 0.3 Mbps", z.TargetBps())
	}
	// Restore and track the staircase.
	var reachedNominal, peak time.Duration
	peakRate := 0.0
	for now := 30 * time.Second; now <= 180*time.Second; now += 100 * time.Millisecond {
		z.OnFeedback(Feedback{Now: now, Interval: 100 * time.Millisecond,
			ReceiveRateBps: z.TargetBps(), LossFraction: 0, QueueDelay: 0})
		r := z.TargetBps()
		if r >= nominal && reachedNominal == 0 {
			reachedNominal = now - 30*time.Second
		}
		if r > peakRate {
			peakRate, peak = r, now
		}
	}
	if reachedNominal == 0 {
		t.Fatal("Zoom never recovered to nominal")
	}
	// Staircase from 0.25 to 0.78 in ~110 kbps / 7 s steps: expect 25-60 s.
	if reachedNominal < 20*time.Second || reachedNominal > 70*time.Second {
		t.Errorf("Zoom staircase recovery = %v, want 20-70 s", reachedNominal)
	}
	// Probing overshoot: peak well above nominal, then settles back.
	if peakRate < 1.3*nominal {
		t.Errorf("Zoom probe peak = %v, want >= 1.3x nominal %v", peakRate, nominal)
	}
	if z.TargetBps() > 1.05*nominal {
		t.Errorf("Zoom final rate %v did not settle to nominal %v (peak at %v)",
			z.TargetBps(), nominal, peak)
	}
}

func TestZoomToleratesModerateLoss(t *testing.T) {
	nominal := 780_000.0
	z := NewZoomCC(DefaultZoomConfig(Range{MinBps: 100_000, MaxBps: 3_000_000, StartBps: nominal}, nominal))
	for now := 100 * time.Millisecond; now <= 20*time.Second; now += 100 * time.Millisecond {
		z.OnFeedback(Feedback{Now: now, Interval: 100 * time.Millisecond,
			ReceiveRateBps: 0.85 * z.TargetBps(), LossFraction: 0.15,
			QueueDelay: 200 * time.Millisecond})
	}
	if z.TargetBps() < nominal {
		t.Errorf("Zoom backed off at 15%% loss: target = %v", z.TargetBps())
	}
}

func TestZoomBacksOffOnHeavyLoss(t *testing.T) {
	nominal := 780_000.0
	z := NewZoomCC(DefaultZoomConfig(Range{MinBps: 100_000, MaxBps: 3_000_000, StartBps: nominal}, nominal))
	z.OnFeedback(Feedback{Now: time.Second, Interval: 100 * time.Millisecond,
		ReceiveRateBps: 300_000, LossFraction: 0.4, QueueDelay: 600 * time.Millisecond})
	if got := z.TargetBps(); got > 0.93*300_000+1 {
		t.Errorf("Zoom target after 40%% loss = %v, want <= 279k", got)
	}
}

func TestZoomSteadyProbeBursts(t *testing.T) {
	nominal := 780_000.0
	z := NewZoomCC(DefaultZoomConfig(Range{MinBps: 100_000, MaxBps: 3_000_000, StartBps: nominal}, nominal))
	sawBurst := false
	for now := 100 * time.Millisecond; now <= 3*time.Minute; now += 100 * time.Millisecond {
		z.OnFeedback(Feedback{Now: now, Interval: 100 * time.Millisecond,
			ReceiveRateBps: z.TargetBps(), LossFraction: 0, QueueDelay: 0})
		if z.PadRateBps(now) > 0.5*nominal {
			sawBurst = true
		}
	}
	if !sawBurst {
		t.Error("Zoom never emitted a steady-state probe burst (Fig 13 behaviour)")
	}
}

func TestTeamsHairTriggerBackoff(t *testing.T) {
	r := Range{MinBps: 150_000, MaxBps: 2_500_000, StartBps: 1_400_000}
	tc := NewTeamsCC(DefaultTeamsConfig(r))
	tc.OnFeedback(Feedback{Now: time.Second, Interval: 100 * time.Millisecond,
		ReceiveRateBps: 1_300_000, LossFraction: 0.03, QueueDelay: 0})
	if got := tc.TargetBps(); got > 0.8*1_300_000+1 {
		t.Errorf("Teams target after 3%% loss = %v, want <= %v", got, 0.8*1_300_000)
	}
	// 70 ms queueing alone must also trigger.
	tc2 := NewTeamsCC(DefaultTeamsConfig(r))
	tc2.OnFeedback(Feedback{Now: time.Second, Interval: 100 * time.Millisecond,
		ReceiveRateBps: 1_000_000, LossFraction: 0, QueueDelay: 70 * time.Millisecond})
	if got := tc2.TargetBps(); got > 800_001 {
		t.Errorf("Teams target after 70ms delay = %v, want <= 800k", got)
	}
}

func TestTeamsSlowThenFastRecovery(t *testing.T) {
	r := Range{MinBps: 150_000, MaxBps: 2_500_000, StartBps: 1_400_000}
	tc := NewTeamsCC(DefaultTeamsConfig(r))
	// Knock it down to ~0.2.
	tc.OnFeedback(Feedback{Now: time.Second, Interval: 100 * time.Millisecond,
		ReceiveRateBps: 250_000, LossFraction: 0.5, QueueDelay: 300 * time.Millisecond})
	low := tc.TargetBps()
	// Clean recovery: measure rate gained in the first 5 s vs seconds 15-20.
	rateAt := func(until time.Duration) float64 {
		return tc.TargetBps()
	}
	_ = rateAt
	var gainEarly, gainLate float64
	prev := low
	for now := time.Second; now <= 21*time.Second; now += 100 * time.Millisecond {
		tc.OnFeedback(Feedback{Now: now, Interval: 100 * time.Millisecond,
			ReceiveRateBps: tc.TargetBps(), LossFraction: 0, QueueDelay: 0})
		if now == 6*time.Second {
			gainEarly = tc.TargetBps() - prev
			prev = tc.TargetBps()
		}
		if now == 21*time.Second {
			gainLate = tc.TargetBps() - prev
		}
	}
	if gainEarly <= 0 || gainLate <= 0 {
		t.Fatalf("no recovery: early %v late %v", gainEarly, gainLate)
	}
	if gainLate < 2*gainEarly {
		t.Errorf("recovery not slow-then-fast: first 5s gained %v, 6-21s gained %v", gainEarly, gainLate)
	}
}

func TestTeamsReachesNominalUnconstrained(t *testing.T) {
	r := Range{MinBps: 150_000, MaxBps: 1_500_000, StartBps: 300_000}
	tc := NewTeamsCC(DefaultTeamsConfig(r))
	got := feed(tc, 0, 60*time.Second)
	if got < 1_400_000 {
		t.Errorf("Teams unconstrained = %v, want near max %v", got, r.MaxBps)
	}
}

// Comparative property: under identical sustained moderate congestion
// (12% loss, 150 ms queues), Zoom holds its rate while Teams and GCC both
// retreat — the ordering behind every §5 fairness result.
func TestAggressionOrdering(t *testing.T) {
	r := Range{MinBps: 100_000, MaxBps: 3_000_000, StartBps: 800_000}
	congest := func(c Controller) float64 {
		for now := 100 * time.Millisecond; now <= 20*time.Second; now += 100 * time.Millisecond {
			c.OnFeedback(Feedback{Now: now, Interval: 100 * time.Millisecond,
				ReceiveRateBps: 0.88 * c.TargetBps(), LossFraction: 0.12,
				QueueDelay: 150 * time.Millisecond})
		}
		return c.TargetBps()
	}
	zoom := congest(NewZoomCC(DefaultZoomConfig(r, 780_000)))
	teams := congest(NewTeamsCC(DefaultTeamsConfig(r)))
	meet := congest(NewGCC(DefaultGCCConfig(r)))
	if !(zoom > meet && zoom > teams) {
		t.Errorf("aggression ordering violated: zoom=%v meet=%v teams=%v", zoom, meet, teams)
	}
	if zoom < 700_000 {
		t.Errorf("zoom should shrug off 12%% loss, got %v", zoom)
	}
	if teams > 200_000 {
		t.Errorf("teams should be crushed by sustained congestion, got %v", teams)
	}
}
