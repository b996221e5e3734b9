package netem

import (
	"testing"
	"time"

	"vcalab/internal/sim"
)

// --- Gilbert–Elliott ---

// TestGEDeterminism: the chain is a pure function of (seed, config) — the
// same seed replays the identical loss sequence, and adjacent seeds
// decorrelate (the splitmix mixer, not the raw source, is what guarantees
// this for sequential fuzz seeds).
func TestGEDeterminism(t *testing.T) {
	cfg := WiFiBursty(0.05, 4)
	seq := func(seed int64, n int) []bool {
		g := NewGilbertElliott(seed, cfg)
		out := make([]bool, n)
		for i := range out {
			out[i] = g.Lose()
		}
		return out
	}
	a, b := seq(42, 5000), seq(42, 5000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 42 diverges from itself at packet %d", i)
		}
	}
	c := seq(43, 5000)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 42 and 43 produced identical loss sequences")
	}
}

// TestGEStatistics holds the empirical chain against its analytic
// long-run behaviour: overall loss rate vs stationaryLoss, and — for the
// LossBad=1/LossGood=0 WiFi parameterization — mean burst length vs 1/R.
func TestGEStatistics(t *testing.T) {
	cases := []struct {
		name       string
		cfg        GEConfig
		checkBurst float64 // expected mean burst length; 0 = skip
	}{
		{"wifi 2% burst2", WiFiBursty(0.02, 2), 2},
		{"wifi 5% burst4", WiFiBursty(0.05, 4), 4},
		{"wifi 10% burst8", WiFiBursty(0.10, 8), 8},
		{"leaky good state", GEConfig{P: 0.02, R: 0.5, LossGood: 0.01, LossBad: 0.8}, 0},
	}
	const n = 200_000
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := NewGilbertElliott(7, c.cfg)
			bursts, burstLen := 0, 0
			var lenSum int
			for i := 0; i < n; i++ {
				if g.Lose() {
					if burstLen == 0 {
						bursts++
					}
					burstLen++
				} else if burstLen > 0 {
					lenSum += burstLen
					burstLen = 0
				}
			}
			if g.Offered != n {
				t.Fatalf("Offered = %d, want %d", g.Offered, n)
			}
			rate := float64(g.Losses) / float64(g.Offered)
			want := c.cfg.stationaryLoss()
			if rate < want*0.8 || rate > want*1.2 {
				t.Errorf("loss rate %.4f, want %.4f ±20%%", rate, want)
			}
			if c.checkBurst > 0 && bursts > 0 {
				mean := float64(lenSum) / float64(bursts)
				if mean < c.checkBurst*0.85 || mean > c.checkBurst*1.15 {
					t.Errorf("mean burst %.2f packets, want %.1f ±15%%", mean, c.checkBurst)
				}
			}
		})
	}
}

// TestGEDegenerateChains pins the corner parameterizations: a chain that
// can never go Bad loses nothing, a chain that can never come back loses
// everything from the first transition on.
func TestGEDegenerateChains(t *testing.T) {
	never := NewGilbertElliott(1, GEConfig{P: 0, R: 1, LossBad: 1})
	for i := 0; i < 1000; i++ {
		if never.Lose() {
			t.Fatal("P=0 chain entered Bad")
		}
	}
	always := NewGilbertElliott(1, GEConfig{P: 1, R: 0, LossBad: 1})
	for i := 0; i < 1000; i++ {
		if !always.Lose() {
			t.Fatal("P=1,R=0 chain left Bad")
		}
	}
	if !always.bad {
		t.Error("absorbing chain not in Bad state")
	}
}

// TestLinkLossModelAccounting: the installed model sees every offered
// packet exactly once and the link's drop counters track its verdicts;
// clearing the model restores clean delivery.
func TestLinkLossModelAccounting(t *testing.T) {
	eng := sim.New(1)
	s := &sink{}
	l := NewLink(eng, "wifi", LinkConfig{Delay: time.Millisecond}, s)
	g := NewGilbertElliott(3, WiFiBursty(0.3, 3))
	l.SetLossModel(g)
	const n = 2000
	for i := 0; i < n; i++ {
		l.Send(&Packet{Size: 100})
	}
	eng.Run()
	if g.Offered != n {
		t.Errorf("model saw %d packets, want %d", g.Offered, n)
	}
	if uint64(l.Drops) != g.Losses {
		t.Errorf("link dropped %d, model lost %d", l.Drops, g.Losses)
	}
	if int(l.Delivered)+int(l.Drops) != n {
		t.Errorf("conservation: %d + %d != %d", l.Delivered, l.Drops, n)
	}
	l.SetLossModel(nil)
	l.Send(&Packet{Size: 100})
	eng.Run()
	if g.Offered != n {
		t.Error("cleared model still consulted")
	}
}

// --- CoDel control law ---

// TestCoDelControlLaw walks the law through its states with an explicit
// (now, sojourn) script: below-target resets, the Interval grace period,
// the first drop, and the √count acceleration.
func TestCoDelControlLaw(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	c := &CoDel{} // 5 ms target, 100 ms interval
	steps := []struct {
		now, sojourn time.Duration
		want         bool
		note         string
	}{
		{ms(0), ms(2), false, "below target"},
		{ms(10), ms(20), false, "first above target opens the grace period"},
		{ms(50), ms(20), false, "still inside the interval"},
		{ms(110), ms(20), true, "interval elapsed: first drop"},
		{ms(150), ms(20), false, "dropNext not reached"},
		{ms(210), ms(20), true, "second drop, interval/sqrt(2) later"},
		{ms(215), ms(3), false, "below target resets the law"},
		{ms(220), ms(20), false, "grace period restarts after reset"},
	}
	for _, st := range steps {
		if got := c.dropOnDequeue(st.now, st.sojourn); got != st.want {
			t.Fatalf("t=%v sojourn=%v: drop=%v, want %v (%s)", st.now, st.sojourn, got, st.want, st.note)
		}
	}
	if c.Drops != 2 {
		t.Errorf("Drops = %d, want 2", c.Drops)
	}
}

// --- bufferbloat ---

func TestDeepQueueBytes(t *testing.T) {
	if got := queueBytes(1e6, 2*time.Second); got != 250000 {
		t.Errorf("1 Mbps x 2 s = %d bytes, want 250000", got)
	}
	if got := queueBytes(50e3, time.Second); got != 5*1500 {
		t.Errorf("tiny rate queue = %d, want the 5-MTU floor", got)
	}
}

// TestBloatEdgeCases is the table-driven edge sweep over the bloated
// link: an idle link, a single packet (never queued, so never AQM-
// judged), a saturating burst against the raw deep queue vs CoDel, and a
// mid-simulation reshape under a standing queue.
func TestBloatEdgeCases(t *testing.T) {
	const mtu = 1250 // 10 ms serialization at 1 Mbps
	cases := []struct {
		name     string
		aqm      bool
		send     int
		sendAt   time.Duration
		reshape  float64 // SetRate at 50 ms when > 0
		wantAQM  bool    // expect AQM head drops
		wantTail bool    // expect queue-full drops
	}{
		{name: "empty queue", send: 0},
		{name: "single packet", aqm: true, send: 1},
		{name: "burst drop-tail", aqm: false, send: 400, wantTail: true},
		{name: "burst codel", aqm: true, send: 400, wantAQM: true},
		{name: "reshape under load", aqm: true, send: 100, reshape: 0.25e6, wantAQM: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eng := sim.New(5)
			s := &sink{eng: eng}
			l := NewLink(eng, "dsl", LinkConfig{RateBps: 1e6, Delay: time.Millisecond}, s)
			ApplyBloat(l, BloatConfig{Depth: time.Second, AQM: c.aqm})
			for i := 0; i < c.send; i++ {
				l.Send(&Packet{Size: mtu, Payload: i})
			}
			if c.reshape > 0 {
				eng.ScheduleHandler(50*time.Millisecond, sim.HandlerFunc(func(time.Duration) { l.SetRate(c.reshape) }))
			}
			eng.Run()

			if int(l.Delivered)+int(l.Drops) != c.send {
				t.Fatalf("conservation: %d delivered + %d dropped != %d sent", l.Delivered, l.Drops, c.send)
			}
			if c.send == 1 && (l.Drops != 0 || l.AQMDrops != 0) {
				t.Error("single un-queued packet was dropped")
			}
			if c.wantAQM && l.AQMDrops == 0 {
				t.Error("CoDel never head-dropped on a saturated deep queue")
			}
			if !c.aqm && l.AQMDrops != 0 {
				t.Errorf("AQMDrops = %d with no AQM installed", l.AQMDrops)
			}
			if c.wantTail && l.Drops == l.AQMDrops {
				t.Error("expected queue-full drops beyond the AQM's")
			}
			if l.AQMDrops > l.Drops {
				t.Errorf("AQMDrops %d exceeds total Drops %d", l.AQMDrops, l.Drops)
			}
			// FIFO survives bloat, AQM head drops and reshaping: delivery
			// times never decrease and payload order is preserved.
			last, lastID := time.Duration(-1), -1
			for i, p := range s.pkts {
				if s.times[i] < last {
					t.Fatalf("delivery %d at %v before previous %v", i, s.times[i], last)
				}
				last = s.times[i]
				if id := p.Payload.(int); id <= lastID {
					t.Fatalf("delivery %d reordered: payload %d after %d", i, id, lastID)
				} else {
					lastID = id
				}
			}
		})
	}
}

// TestBloatVsAQMDelay: the point of the model — without AQM a deep queue
// holds delay near its depth; CoDel pulls the standing queue back down.
func TestBloatVsAQMDelay(t *testing.T) {
	worst := func(aqm bool) time.Duration {
		eng := sim.New(5)
		var worst time.Duration
		l := NewLink(eng, "dsl", LinkConfig{RateBps: 1e6}, HandlerFunc(func(p *Packet) {
			if d := eng.Now() - p.SentAt; d > worst {
				worst = d
			}
		}))
		ApplyBloat(l, BloatConfig{Depth: time.Second, AQM: aqm})
		// Offered load 2x capacity for 4 s: 100 pkts/s of 2500 B at 1 Mbps.
		for i := 0; i < 400; i++ {
			at := time.Duration(i) * 10 * time.Millisecond
			eng.AtHandler(at, sim.HandlerFunc(func(time.Duration) {
				pkt := &Packet{Size: 2500}
				pkt.SentAt = eng.Now()
				l.Send(pkt)
			}))
		}
		eng.Run()
		return worst
	}
	tail := worst(false)
	codel := worst(true)
	if tail < 700*time.Millisecond {
		t.Errorf("drop-tail worst delay %v; a 1 s deep queue should bloat past 700ms", tail)
	}
	if codel > tail/2 {
		t.Errorf("CoDel worst delay %v vs drop-tail %v; AQM should at least halve it", codel, tail)
	}
}

func TestApplyBloatUnconstrainedNoop(t *testing.T) {
	eng := sim.New(1)
	l := NewLink(eng, "fast", LinkConfig{}, &sink{})
	ApplyBloat(l, BloatConfig{Depth: time.Second, AQM: true})
	if l.aqm != nil || l.cfg.QueueBytes != 0 {
		t.Error("ApplyBloat touched an unconstrained link")
	}
}

// --- pause gate ---

// TestLinkSetPaused pins the handover-gap semantics: the in-service
// packet finishes on the wire, arrivals queue behind the gate, and
// unpausing flushes the queue in order.
func TestLinkSetPaused(t *testing.T) {
	eng := sim.New(1)
	s := &sink{eng: eng}
	l := NewLink(eng, "lte", LinkConfig{RateBps: 1e6, QueueBytes: 1 << 20}, s)
	l.Send(&Packet{Size: 1250}) // serialization done at 10 ms
	l.Send(&Packet{Size: 1250}) // queued
	eng.ScheduleHandler(5*time.Millisecond, sim.HandlerFunc(func(time.Duration) { l.SetPaused(true) }))
	eng.ScheduleHandler(20*time.Millisecond, sim.HandlerFunc(func(time.Duration) {
		l.Send(&Packet{Size: 1250}) // arrives mid-gap: queues
	}))
	eng.ScheduleHandler(50*time.Millisecond, sim.HandlerFunc(func(time.Duration) { l.SetPaused(false) }))
	eng.Run()
	want := []time.Duration{10 * time.Millisecond, 60 * time.Millisecond, 70 * time.Millisecond}
	if len(s.times) != len(want) {
		t.Fatalf("delivered %d packets, want %d", len(s.times), len(want))
	}
	for i := range want {
		if s.times[i] != want[i] {
			t.Errorf("delivery %d at %v, want %v", i, s.times[i], want[i])
		}
	}
	if l.Paused() {
		t.Error("link still reports paused")
	}
}

// TestLinkPausedIdempotent: redundant pause/unpause calls don't double-
// start the serializer or lose the queue.
func TestLinkPausedIdempotent(t *testing.T) {
	eng := sim.New(1)
	s := &sink{eng: eng}
	l := NewLink(eng, "lte", LinkConfig{RateBps: 1e6, QueueBytes: 1 << 20}, s)
	l.SetPaused(true)
	l.SetPaused(true)
	l.Send(&Packet{Size: 1250})
	l.SetPaused(false)
	l.SetPaused(false)
	eng.Run()
	if len(s.times) != 1 || s.times[0] != 10*time.Millisecond {
		t.Errorf("deliveries %v, want exactly one at 10ms", s.times)
	}
}

// --- packet-pool conservation ---

// TestDropPathsReleasePooledPackets is the pool-leak regression: every
// terminal point — delivery, queue-full drop, loss-model drop, AQM head
// drop, unrouteable — must Release the pooled packet. A forgotten
// Release shows up as PoolLive > 0 after the drain.
func TestDropPathsReleasePooledPackets(t *testing.T) {
	cases := []struct {
		name string
		prep func(eng *sim.Engine, src, dst *Host) *Link
		n    int
	}{
		{"delivery", func(eng *sim.Engine, src, dst *Host) *Link {
			return NewLink(eng, "l", LinkConfig{RateBps: 1e6, QueueBytes: 1 << 20}, dst)
		}, 50},
		{"queue-full drop", func(eng *sim.Engine, src, dst *Host) *Link {
			return NewLink(eng, "l", LinkConfig{RateBps: 1e6, QueueBytes: 2500}, dst)
		}, 200},
		{"loss-model drop", func(eng *sim.Engine, src, dst *Host) *Link {
			l := NewLink(eng, "l", LinkConfig{RateBps: 1e6, QueueBytes: 1 << 20}, dst)
			l.SetLossModel(NewGilbertElliott(1, GEConfig{P: 1, R: 0, LossBad: 1}))
			return l
		}, 200},
		{"aqm drop", func(eng *sim.Engine, src, dst *Host) *Link {
			l := NewLink(eng, "l", LinkConfig{RateBps: 1e6, QueueBytes: 1 << 20}, dst)
			ApplyBloat(l, BloatConfig{Depth: 2 * time.Second, AQM: true})
			return l
		}, 400},
		{"unrouteable", func(eng *sim.Engine, src, dst *Host) *Link {
			// dst has no handler for the port: Deliver discards.
			return NewLink(eng, "l", LinkConfig{RateBps: 1e6, QueueBytes: 1 << 20}, dst)
		}, 50},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eng := sim.New(8)
			src, dst := NewHost(eng, "src"), NewHost(eng, "dst")
			if c.name != "unrouteable" {
				dst.HandleFunc(80, func(p *Packet) {})
			}
			l := c.prep(eng, src, dst)
			src.SetUplink(l)
			for i := 0; i < c.n; i++ {
				pkt := src.NewPacket()
				pkt.Size = 1250
				pkt.To = Addr{Host: "dst", Port: 80}
				src.Send(pkt)
			}
			eng.Run()
			if live := src.PoolLive(); live != 0 {
				t.Errorf("%d pooled packets leaked (of %d sent, %d dropped)", live, c.n, l.Drops)
			}
			if c.name == "aqm drop" && l.AQMDrops == 0 {
				t.Skip("workload never triggered the AQM; case not exercised")
			}
		})
	}
}
