package vca

import (
	"testing"
	"time"

	"vcalab/internal/netem"
	"vcalab/internal/sim"
)

// TestZoomStarvedReceiverGetsBaseLayerOnly is the regression test for the
// SVC layer-selection churn bug: when a receiver's downlink estimate sits
// below even the base layer's rate, a mid-call rejoin used to forward the
// rejoined origin's media at EVERY layer — the fresh forwarder's maxLayer
// sentinel (1<<10) lived until the next control tick, and the selection
// walk advanced past unmeasured layers for free because the rejoined
// origin's rate row was empty. Both paths must now keep a starved
// receiver at layer 0.
func TestZoomStarvedReceiverGetsBaseLayerOnly(t *testing.T) {
	eng := sim.New(31)
	// c1 behind a 250 kbps downlink: far below the Zoom base layer
	// (0.40 x ~740 kbps, plus 18% server FEC, ~350 kbps on the wire).
	l := newLab(eng, 0, 250_000)
	c1 := l.clientHost("c1")
	c2 := l.remoteHost("c2", 5*time.Millisecond)
	c3 := l.remoteHost("c3", 5*time.Millisecond)
	sfu := l.remoteHost("sfu", 15*time.Millisecond)
	call := NewCall(eng, Zoom(), sfu, []*netem.Host{c1, c2, c3}, CallOptions{Seed: 31})

	// Count upper-layer video from c2 delivered to c1, but only once the
	// churn sequence below re-admits c2 into the call.
	countFrom := time.Duration(1 << 62)
	var upper, base int
	c1.Tap(func(p *netem.Packet) {
		mp, ok := p.Payload.(*MediaPacket)
		if !ok || mp.OriginID != call.Clients[1].id || mp.Audio || mp.Padding || eng.Now() < countFrom {
			return
		}
		if mp.Layer > 0 {
			upper++
		} else {
			base++
		}
	})

	call.Start()
	eng.RunUntil(20 * time.Second)

	// Sanity: the starved leg's estimate really is below the base layer.
	est := call.Server.Leg("c1").TargetBps()
	share := (est - Zoom().AudioBps*2) / 2
	if baseRate := 0.40 * 740_000 * 1.18; share >= baseRate {
		t.Fatalf("precondition: c1 share %.0f not below base layer %.0f", share, baseRate)
	}

	call.Leave("c2")
	eng.RunUntil(22 * time.Second)
	call.Rejoin("c2")
	countFrom = eng.Now()
	eng.RunUntil(30 * time.Second)
	call.Stop()

	if base == 0 {
		t.Fatal("no base-layer video from rejoined c2 reached starved c1")
	}
	if upper != 0 {
		t.Errorf("starved c1 received %d upper-layer packets from rejoined c2 (want 0: estimate below base layer)", upper)
	}
}
