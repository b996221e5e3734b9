package netem

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"vcalab/internal/obs"
	"vcalab/internal/sim"
)

type sink struct {
	pkts  []*Packet
	times []time.Duration
	eng   *sim.Engine
}

func (s *sink) Deliver(p *Packet) {
	s.pkts = append(s.pkts, p)
	if s.eng != nil {
		s.times = append(s.times, s.eng.Now())
	}
}

func TestLinkSerializationDelay(t *testing.T) {
	eng := sim.New(1)
	s := &sink{eng: eng}
	// 1 Mbps, 10 ms propagation: a 1250-byte packet serializes in 10 ms.
	l := NewLink(eng, "up", LinkConfig{RateBps: 1e6, Delay: 10 * time.Millisecond}, s)
	l.Send(&Packet{Size: 1250})
	eng.Run()
	if len(s.pkts) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(s.pkts))
	}
	if got, want := s.times[0], 20*time.Millisecond; got != want {
		t.Errorf("delivery at %v, want %v (10ms tx + 10ms prop)", got, want)
	}
}

func TestLinkBackToBackSpacing(t *testing.T) {
	eng := sim.New(1)
	s := &sink{eng: eng}
	l := NewLink(eng, "up", LinkConfig{RateBps: 1e6}, s)
	for i := 0; i < 3; i++ {
		l.Send(&Packet{Size: 1250}) // 10 ms each at 1 Mbps
	}
	eng.Run()
	if len(s.pkts) != 3 {
		t.Fatalf("delivered %d, want 3", len(s.pkts))
	}
	for i, want := range []time.Duration{10, 20, 30} {
		if s.times[i] != want*time.Millisecond {
			t.Errorf("packet %d at %v, want %vms", i, s.times[i], want)
		}
	}
}

func TestLinkInfiniteRate(t *testing.T) {
	eng := sim.New(1)
	s := &sink{eng: eng}
	l := NewLink(eng, "wire", LinkConfig{Delay: 2 * time.Millisecond}, s)
	for i := 0; i < 100; i++ {
		l.Send(&Packet{Size: 1500})
	}
	eng.Run()
	if len(s.pkts) != 100 {
		t.Fatalf("delivered %d, want 100 (no queue on infinite link)", len(s.pkts))
	}
	for _, at := range s.times {
		if at != 2*time.Millisecond {
			t.Fatalf("delivery at %v, want 2ms", at)
		}
	}
}

func TestLinkDropTail(t *testing.T) {
	eng := sim.New(1)
	s := &sink{eng: eng}
	// Queue of exactly 2 packets beyond the one in service.
	l := NewLink(eng, "up", LinkConfig{RateBps: 1e6, QueueBytes: 2500}, s)
	for i := 0; i < 5; i++ {
		l.Send(&Packet{Size: 1250, Flow: "f"})
	}
	eng.Run()
	if len(s.pkts) != 3 {
		t.Errorf("delivered %d, want 3 (1 in service + 2 queued)", len(s.pkts))
	}
	if l.Drops != 2 {
		t.Errorf("dropped %d, want 2", l.Drops)
	}
	if l.DroppedBytes != 2500 {
		t.Errorf("DroppedBytes = %d, want 2500", l.DroppedBytes)
	}
}

func TestLinkSetRateMidStream(t *testing.T) {
	eng := sim.New(1)
	s := &sink{eng: eng}
	l := NewLink(eng, "up", LinkConfig{RateBps: 1e6, QueueBytes: 1 << 20}, s)
	l.Send(&Packet{Size: 1250}) // serializes at 1 Mbps: done at 10ms
	l.Send(&Packet{Size: 1250}) // queued
	// Halve the rate while the first packet is in flight.
	eng.ScheduleHandler(5*time.Millisecond, sim.HandlerFunc(func(time.Duration) { l.SetRate(0.5e6) }))
	eng.Run()
	// First finishes at old rate (10ms); second takes 20ms at the new rate.
	if s.times[0] != 10*time.Millisecond {
		t.Errorf("first delivery %v, want 10ms", s.times[0])
	}
	if s.times[1] != 30*time.Millisecond {
		t.Errorf("second delivery %v, want 30ms", s.times[1])
	}
}

func TestDefaultQueueBytes(t *testing.T) {
	if got := DefaultQueueBytes(1e6); got != 25000 {
		t.Errorf("1 Mbps queue = %d, want 25000 (200ms)", got)
	}
	if got := DefaultQueueBytes(100e3); got != 5*1500 {
		t.Errorf("100 kbps queue = %d, want floor %d", got, 5*1500)
	}
	// Past math.MaxInt bytes the bound saturates instead of wrapping to
	// the floor.
	for _, rate := range []float64{1e21, 1e300, math.Inf(1)} {
		if got := DefaultQueueBytes(rate); got != math.MaxInt {
			t.Errorf("%g bps queue = %d, want %d", rate, got, math.MaxInt)
		}
	}
}

func TestHostPortDispatchAndTap(t *testing.T) {
	eng := sim.New(1)
	h := NewHost(eng, "c1")
	var got []int
	h.HandleFunc(5000, func(p *Packet) { got = append(got, 5000) })
	h.HandleFunc(5002, func(p *Packet) { got = append(got, 5002) })
	tapped := 0
	h.Tap(func(p *Packet) { tapped++ })
	h.Deliver(&Packet{To: Addr{Host: "c1", Port: 5002}})
	h.Deliver(&Packet{To: Addr{Host: "c1", Port: 5000}})
	h.Deliver(&Packet{To: Addr{Host: "c1", Port: 9}})
	if len(got) != 2 || got[0] != 5002 || got[1] != 5000 {
		t.Errorf("dispatch order = %v", got)
	}
	if h.Unrouteable != 1 {
		t.Errorf("Unrouteable = %d, want 1", h.Unrouteable)
	}
	if tapped != 3 {
		t.Errorf("tapped = %d, want 3 (taps see all ports)", tapped)
	}
}

func TestHostSendWithoutUplinkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Send without uplink did not panic")
		}
	}()
	NewHost(sim.New(1), "c1").Send(&Packet{})
}

func TestRouterRouting(t *testing.T) {
	eng := sim.New(1)
	a, b, def := &sink{}, &sink{}, &sink{}
	r := NewRouter("rt")
	r.Route("a", NewLink(eng, "ra", LinkConfig{}, a))
	r.Route("b", NewLink(eng, "rb", LinkConfig{}, b))
	r.Deliver(&Packet{To: Addr{Host: "a"}})
	r.Deliver(&Packet{To: Addr{Host: "b"}})
	r.Deliver(&Packet{To: Addr{Host: "zzz"}})
	if r.Unrouteable != 1 {
		t.Errorf("Unrouteable = %d, want 1 without default", r.Unrouteable)
	}
	r.DefaultRoute(NewLink(eng, "rdef", LinkConfig{}, def))
	r.Deliver(&Packet{To: Addr{Host: "zzz"}})
	eng.Run()
	if len(a.pkts) != 1 || len(b.pkts) != 1 || len(def.pkts) != 1 {
		t.Errorf("routing counts a=%d b=%d def=%d, want 1 each",
			len(a.pkts), len(b.pkts), len(def.pkts))
	}
}

// TestRouterMemoNeverDisagreesWithTheTable drives the router the way a
// call does — the same Host string on every packet of a flow — through
// every change the memo in front of the name table has to survive.
func TestRouterMemoNeverDisagreesWithTheTable(t *testing.T) {
	eng := sim.New(1)
	a, a2, c1, def := &sink{}, &sink{}, &sink{}, &sink{}
	r := NewRouter("rt")
	r.Route("a", NewLink(eng, "ra", LinkConfig{}, a))
	r.Route("c1", NewLink(eng, "rc1", LinkConfig{}, c1))
	deliver := func(host string, times int) {
		for i := 0; i < times; i++ {
			r.Deliver(&Packet{To: Addr{Host: host}})
		}
		eng.Run()
	}
	expect := func(step string, want map[*sink]int, unrouteable uint64) {
		t.Helper()
		for s, n := range want {
			if len(s.pkts) != n {
				t.Errorf("%s: sink got %d packets, want %d", step, len(s.pkts), n)
			}
		}
		if r.Unrouteable != unrouteable {
			t.Errorf("%s: Unrouteable = %d, want %d", step, r.Unrouteable, unrouteable)
		}
	}

	// Every packet of a flow carries the same string: first a table
	// lookup, then memo hits. Unrouteable packets count one by one.
	deliver("a", 3)
	deliver("nowhere", 3)
	expect("memo hits", map[*sink]int{a: 3}, 3)

	// An Addr built from a different string with equal contents.
	other := string([]byte{'a'})
	deliver(other, 2)
	expect("equal contents, other bytes", map[*sink]int{a: 5}, 3)

	// A name that shares its first bytes — same data pointer, other
	// length — with a routed one must not take that route.
	long := string([]byte("c10"))
	deliver(long[:2], 2) // "c1"
	deliver(long, 2)     // "c10": no route
	expect("shared prefix", map[*sink]int{c1: 2}, 5)

	// A default route installed mid-run catches what had been memoized
	// as unrouteable; named routes keep winning over it.
	r.DefaultRoute(NewLink(eng, "rdef", LinkConfig{}, def))
	deliver("nowhere", 2)
	deliver(long, 1)
	deliver("a", 1)
	expect("default route fallthrough", map[*sink]int{def: 3, a: 6}, 5)

	// Re-routing a memoized name mid-run takes effect on the next packet.
	r.Route("a", NewLink(eng, "ra2", LinkConfig{}, a2))
	deliver("a", 2)
	deliver(other, 1)
	expect("re-route", map[*sink]int{a: 6, a2: 3}, 5)

	// A name the default used to carry gets its own route.
	r.Route("nowhere", NewLink(eng, "rnw", LinkConfig{}, c1))
	deliver("nowhere", 1)
	expect("route shadows default", map[*sink]int{def: 3, c1: 3}, 5)
}

// TestRouterManyDestinations sends to more names than a small memo has
// slots, in an order that makes colliding names evict each other.
func TestRouterManyDestinations(t *testing.T) {
	eng := sim.New(1)
	r := NewRouter("rt")
	names := make([]string, 200)
	sinks := make([]*sink, len(names))
	for i := range names {
		names[i] = fmt.Sprintf("c%d", i)
		sinks[i] = &sink{}
	}
	// Route only the first ten; the rest share the default.
	def := &sink{}
	r.DefaultRoute(NewLink(eng, "rdef", LinkConfig{}, def))
	for i := 0; i < 10; i++ {
		r.Route(names[i], NewLink(eng, "r"+names[i], LinkConfig{}, sinks[i]))
	}
	for round := 0; round < 3; round++ {
		for _, n := range names {
			r.Deliver(&Packet{To: Addr{Host: n}})
		}
	}
	eng.Run()
	for i := 0; i < 10; i++ {
		if len(sinks[i].pkts) != 3 {
			t.Errorf("%s got %d packets, want 3", names[i], len(sinks[i].pkts))
		}
	}
	if want := 3 * (len(names) - 10); len(def.pkts) != want {
		t.Errorf("default got %d packets, want %d", len(def.pkts), want)
	}
}

// TestHostHandleReplaces: a port has one handler; registering again
// replaces it, and unbound ports count as unrouteable.
func TestHostHandleReplaces(t *testing.T) {
	eng := sim.New(1)
	h := NewHost(eng, "h")
	var first, second int
	h.HandleFunc(9, func(*Packet) { first++ })
	h.HandleFunc(10, func(*Packet) {})
	h.HandleFunc(9, func(*Packet) { second++ })
	h.Deliver(&Packet{To: Addr{Host: "h", Port: 9}})
	h.Deliver(&Packet{To: Addr{Host: "h", Port: 11}})
	if first != 0 || second != 1 || h.Unrouteable != 1 {
		t.Errorf("first=%d second=%d unrouteable=%d, want 0 1 1", first, second, h.Unrouteable)
	}
}

func TestEndToEndTopology(t *testing.T) {
	// C1 --(shaped 1 Mbps)--> router --(fast)--> server host.
	eng := sim.New(1)
	c1 := NewHost(eng, "c1")
	srv := NewHost(eng, "srv")
	rt := NewRouter("rt")
	c1.SetUplink(NewLink(eng, "c1-rt", LinkConfig{RateBps: 1e6, Delay: time.Millisecond}, rt))
	rt.Route("srv", NewLink(eng, "rt-srv", LinkConfig{Delay: 9 * time.Millisecond}, srv))
	var arrived time.Duration
	srv.HandleFunc(80, func(p *Packet) { arrived = eng.Now() })
	c1.Send(&Packet{Size: 1250, From: Addr{"c1", 1}, To: Addr{"srv", 80}})
	eng.Run()
	// 10 ms serialization + 1 ms + 9 ms propagation.
	if arrived != 20*time.Millisecond {
		t.Errorf("arrival at %v, want 20ms", arrived)
	}
}

// Property: every packet sent into a shaped link is either delivered or
// dropped — none vanish, none duplicate — and delivered+dropped bytes
// equal sent bytes.
func TestQuickLinkConservation(t *testing.T) {
	f := func(sizes []uint16, rateKbps uint16, queuePkts uint8) bool {
		eng := sim.New(3)
		s := &sink{}
		rate := float64(rateKbps%5000+10) * 1000
		l := NewLink(eng, "l", LinkConfig{
			RateBps:    rate,
			QueueBytes: (int(queuePkts%16) + 1) * 1500,
		}, s)
		var sent uint64
		for _, raw := range sizes {
			size := int(raw%1400) + 100
			sent += uint64(size)
			l.Send(&Packet{Size: size})
		}
		eng.Run()
		return l.DeliveredBytes+l.DroppedBytes == sent &&
			int(l.Delivered) == len(s.pkts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: a link never reorders packets.
func TestQuickLinkFIFO(t *testing.T) {
	f := func(sizes []uint16) bool {
		eng := sim.New(4)
		s := &sink{}
		l := NewLink(eng, "l", LinkConfig{RateBps: 1e6, QueueBytes: 1 << 30}, s)
		for i, raw := range sizes {
			l.Send(&Packet{Size: int(raw%1400) + 100, Flow: "", Payload: i})
		}
		eng.Run()
		for i, p := range s.pkts {
			if p.Payload.(int) != i {
				return false
			}
		}
		return len(s.pkts) == len(sizes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// multiRouterPath wires h1 → rtA → (inter) → rtB → h2 and returns the
// inter-router link for mid-simulation reshaping.
func multiRouterPath(eng *sim.Engine, interCfg LinkConfig, h1, h2 *Host) *Link {
	rtA, rtB := NewRouter("rtA"), NewRouter("rtB")
	ab, ba := NewLink(eng, "inter/fwd", interCfg, rtB), NewLink(eng, "inter/rev", interCfg, rtA)
	Attach(eng, h1, rtA, LinkConfig{Delay: time.Millisecond})
	Attach(eng, h2, rtB, LinkConfig{Delay: time.Millisecond})
	rtA.Route(h2.Name, ab)
	rtB.Route(h1.Name, ba)
	return ab
}

func TestMultiRouterDelayAccumulatesPerHop(t *testing.T) {
	eng := sim.New(1)
	h1, h2 := NewHost(eng, "h1"), NewHost(eng, "h2")
	multiRouterPath(eng, LinkConfig{RateBps: 1e6, Delay: 10 * time.Millisecond}, h1, h2)
	var arrived time.Duration
	h2.HandleFunc(80, func(p *Packet) { arrived = eng.Now() })
	h1.Send(&Packet{Size: 1250, From: Addr{"h1", 1}, To: Addr{"h2", 80}})
	eng.Run()
	// 1 ms access + (10 ms serialization + 10 ms propagation) inter hop
	// + 1 ms access: each of the three hops contributes its own delay.
	if want := 22 * time.Millisecond; arrived != want {
		t.Errorf("two-router path arrival at %v, want %v", arrived, want)
	}
}

func TestMultiRouterQueueingAccumulatesPerHop(t *testing.T) {
	// First hop 2 Mbps, second hop 1 Mbps: a back-to-back burst spreads
	// at the first bottleneck, then queues again at the slower second
	// hop — per-hop queueing, not a single end-to-end constraint.
	eng := sim.New(2)
	rtA, rtB := NewRouter("rtA"), NewRouter("rtB")
	s := &sink{eng: eng}
	hop2 := NewLink(eng, "hop2", LinkConfig{RateBps: 1e6, QueueBytes: 1 << 20}, s)
	rtB.Route("dst", hop2)
	hop1 := NewLink(eng, "hop1", LinkConfig{RateBps: 2e6, QueueBytes: 1 << 20}, rtB)
	rtA.Route("dst", hop1)
	for i := 0; i < 3; i++ {
		rtA.Deliver(&Packet{Size: 1250, To: Addr{Host: "dst"}})
	}
	eng.Run()
	if len(s.pkts) != 3 {
		t.Fatalf("delivered %d packets, want 3", len(s.pkts))
	}
	// Hop 1 spaces the burst at 5 ms/packet; hop 2 re-serializes at
	// 10 ms/packet: first done at 5+10=15 ms, then every 10 ms.
	for i, want := range []time.Duration{15, 25, 35} {
		if s.times[i] != want*time.Millisecond {
			t.Errorf("packet %d delivered at %v, want %vms (queued at second hop)", i, s.times[i], want)
		}
	}
}

func TestInterRouterRateChangeMidSimulation(t *testing.T) {
	// Reshaping an inter-region link mid-simulation (the cascade's `tc`
	// analogue) must apply to queued and future packets.
	eng := sim.New(3)
	h1, h2 := NewHost(eng, "h1"), NewHost(eng, "h2")
	inter := multiRouterPath(eng, LinkConfig{RateBps: 1e6, QueueBytes: 1 << 20}, h1, h2)
	var times []time.Duration
	h2.HandleFunc(80, func(p *Packet) { times = append(times, eng.Now()) })
	h1.Send(&Packet{Size: 1250, From: Addr{"h1", 1}, To: Addr{"h2", 80}})
	h1.Send(&Packet{Size: 1250, From: Addr{"h1", 1}, To: Addr{"h2", 80}})
	// Halve the inter link while the first packet serializes.
	eng.ScheduleHandler(6*time.Millisecond, sim.HandlerFunc(func(time.Duration) { inter.SetRate(0.5e6) }))
	eng.Run()
	if len(times) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(times))
	}
	// Access hops add 1 ms each way. First packet: 1 + 10 (old rate) + 1.
	// Second: finishes 20 ms later at the new 0.5 Mbps rate.
	if want := 12 * time.Millisecond; times[0] != want {
		t.Errorf("first delivery at %v, want %v", times[0], want)
	}
	if want := 32 * time.Millisecond; times[1] != want {
		t.Errorf("second delivery at %v, want %v (new rate applied)", times[1], want)
	}
}

func BenchmarkLinkThroughput(b *testing.B) {
	eng := sim.New(1)
	s := &sink{}
	l := NewLink(eng, "l", LinkConfig{RateBps: 10e6, QueueBytes: 1 << 30}, s)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Send(&Packet{Size: 1200})
	}
	eng.Run()
}

func TestRandomLoss(t *testing.T) {
	eng := sim.New(9)
	s := &sink{}
	l := NewLink(eng, "lossy", LinkConfig{Delay: time.Millisecond, LossProb: 0.2}, s)
	const n = 5000
	for i := 0; i < n; i++ {
		l.Send(&Packet{Size: 100})
	}
	eng.Run()
	lossRate := float64(l.Drops) / n
	if lossRate < 0.17 || lossRate > 0.23 {
		t.Errorf("loss rate = %.3f, want ~0.2", lossRate)
	}
	if int(l.Delivered)+int(l.Drops) != n {
		t.Errorf("conservation: %d delivered + %d dropped != %d", l.Delivered, l.Drops, n)
	}
}

func TestJitterSpreadsDelay(t *testing.T) {
	eng := sim.New(10)
	s := &sink{eng: eng}
	l := NewLink(eng, "jittery", LinkConfig{Delay: 10 * time.Millisecond, Jitter: 20 * time.Millisecond}, s)
	for i := 0; i < 200; i++ {
		l.Send(&Packet{Size: 100})
	}
	eng.Run()
	minAt, maxAt := s.times[0], s.times[0]
	for _, at := range s.times {
		if at < minAt {
			minAt = at
		}
		if at > maxAt {
			maxAt = at
		}
	}
	if minAt < 10*time.Millisecond || maxAt > 30*time.Millisecond {
		t.Errorf("jittered delays outside [10ms,30ms]: min %v max %v", minAt, maxAt)
	}
	if maxAt-minAt < 10*time.Millisecond {
		t.Errorf("jitter spread too narrow: %v", maxAt-minAt)
	}
}

func TestSetImpairment(t *testing.T) {
	eng := sim.New(11)
	s := &sink{}
	l := NewLink(eng, "l", LinkConfig{Delay: time.Millisecond}, s)
	l.SetImpairment(1.0, 0) // drop everything
	l.Send(&Packet{Size: 100})
	eng.Run()
	if l.Drops != 1 || len(s.pkts) != 0 {
		t.Errorf("full-loss link delivered a packet")
	}
	l.SetImpairment(0, 0)
	l.Send(&Packet{Size: 100})
	eng.Run()
	if len(s.pkts) != 1 {
		t.Errorf("cleared impairment still dropping")
	}
}

// TestSetDelayMidSimulation checks the WAN re-path semantics: packets
// already propagating keep the delay they left with, packets entering
// the wire afterwards use the new one.
func TestSetDelayMidSimulation(t *testing.T) {
	eng := sim.New(11)
	var arrivals []time.Duration
	l := NewLink(eng, "wan", LinkConfig{Delay: 50 * time.Millisecond},
		HandlerFunc(func(p *Packet) { arrivals = append(arrivals, eng.Now()) }))
	l.Send(&Packet{Size: 100}) // departs at 0 under the 50 ms delay
	eng.ScheduleHandler(10*time.Millisecond, sim.HandlerFunc(func(time.Duration) {
		l.SetDelay(5 * time.Millisecond)
		l.Send(&Packet{Size: 100}) // departs at 10 ms under the 5 ms delay
	}))
	eng.Run()
	if l.Delay() != 5*time.Millisecond {
		t.Errorf("Delay() = %v after SetDelay, want 5ms", l.Delay())
	}
	want := []time.Duration{15 * time.Millisecond, 50 * time.Millisecond}
	if len(arrivals) != 2 || arrivals[0] != want[0] || arrivals[1] != want[1] {
		t.Errorf("arrivals = %v, want %v (delay cut reorders across the change)", arrivals, want)
	}
}

// The drop-tail queue is a ring: a standing backlog that is fed as fast
// as it drains must wrap in place — FIFO order, byte accounting and the
// high-water mark unchanged, and the backing array no larger than the
// deepest backlog needs.
func TestLinkQueueRingWrapsInPlace(t *testing.T) {
	eng := sim.New(1)
	s := &sink{}
	l := NewLink(eng, "l", LinkConfig{RateBps: 8e6, QueueBytes: 1 << 20}, s) // 1000 B/ms
	sent := 0
	send := func() {
		l.Send(&Packet{Size: 1000, Payload: sent})
		sent++
	}
	for i := 0; i < 6; i++ { // one in service, five queued
		send()
	}
	eng.EveryHandler(time.Millisecond, sim.HandlerFunc(func(time.Duration) {
		if sent < 500 {
			send() // one in per one out: the backlog stands at five
		}
	}))
	eng.RunUntil(200 * time.Millisecond)
	if l.QueuedBytes() != 5000 || l.QueueHighWater() != 5000 {
		t.Fatalf("QueuedBytes() = %d, QueueHighWater() = %d mid-run; want 5000, 5000", l.QueuedBytes(), l.QueueHighWater())
	}
	eng.RunUntil(time.Second)
	if len(s.pkts) != 500 || l.QueuedBytes() != 0 {
		t.Fatalf("delivered %d of 500, %d bytes still queued", len(s.pkts), l.QueuedBytes())
	}
	for i, p := range s.pkts {
		if p.Payload.(int) != i {
			t.Fatalf("packet %d delivered in position %d", p.Payload.(int), i)
		}
	}
	if len(l.queue) != 8 {
		t.Fatalf("ring grew to %d slots for a backlog of 5", len(l.queue))
	}
}

// A delay cut mid-call with both delays hot enough to own scheduler
// lanes: packets in flight keep the old delay, later ones overtake them,
// and every arrival lands at send time + the delay in force at the send.
func TestSetDelayCutInterleavesLanes(t *testing.T) {
	eng := sim.New(1)
	const oldDelay, newDelay = 50 * time.Millisecond, 5 * time.Millisecond
	const n, cutAt = 200, 100 // one packet per ms; the cut lands before packet 100
	type arrival struct {
		id int
		at time.Duration
	}
	var got, want []arrival
	l := NewLink(eng, "wan", LinkConfig{Delay: oldDelay},
		HandlerFunc(func(p *Packet) { got = append(got, arrival{p.Payload.(int), eng.Now()}) }))
	id := 0
	eng.EveryHandler(time.Millisecond, sim.HandlerFunc(func(time.Duration) {
		if id == cutAt {
			l.SetDelay(newDelay)
		}
		if id < n {
			want = append(want, arrival{id, eng.Now() + l.Delay()})
			l.Send(&Packet{Size: 100, Payload: id})
			id++
		}
	}))
	eng.RunUntil(time.Second)
	if lane, _ := eng.SchedulerInserts(); lane < n {
		t.Fatalf("only %d lane inserts: the two delay classes never both ran on lanes", lane)
	}
	// Arrival order is by time, then send order: packets 100..144 (sent
	// under 5 ms) land in the same instants as packets 55..99, which are
	// still propagating under 50 ms.
	slices.SortStableFunc(want, func(a, b arrival) int { return cmp.Compare(a.at, b.at) })
	if !slices.Equal(got, want) {
		t.Fatalf("arrivals across the delay cut:\n got %v\nwant %v", got, want)
	}
	pos := func(id int) int { return slices.IndexFunc(got, func(a arrival) bool { return a.id == id }) }
	if pos(cutAt) > pos(cutAt-1) {
		t.Fatalf("packet %d did not overtake packet %d: the cut did not reorder", cutAt, cutAt-1)
	}
}

// TestBoundaryLinkTracesOnBothShards: a Handoff link queues, serializes
// and drops on its source shard and delivers on the destination shard,
// and each half records into the tracer of the engine it runs on —
// enqueue, dequeue and drop on the source's ring, every deliver on the
// destination's with queue depth 0 (the queue is the other shard's).
func TestBoundaryLinkTracesOnBothShards(t *testing.T) {
	ctrl, src, dst := sim.New(1), sim.New(2), sim.New(3)
	ring := map[*sim.Engine]*obs.Tracer{}
	for _, e := range []*sim.Engine{ctrl, src, dst} {
		ring[e] = obs.NewTracer(1 << 10)
		e.SetTracer(ring[e])
	}
	s := &sink{eng: dst}
	// 1 Mbps serializes a 1250-byte packet in 10 ms; one arrives every
	// 2 ms, so the 4-packet queue fills and overflows.
	l := NewLink(src, "inter/a-b", LinkConfig{RateBps: 1e6, QueueBytes: 5000, Delay: 10 * time.Millisecond}, s)
	g := sim.NewGroup(ctrl, []*sim.Engine{src, dst}, l.Delay)
	defer g.Close()
	g.Register(l.Handoff(dst))
	const sent = 100
	for i := 0; i < sent; i++ {
		src.AtHandler(time.Duration(2*i)*time.Millisecond, sim.HandlerFunc(func(time.Duration) {
			l.Send(&Packet{Size: 1250, Flow: "f", To: Addr{Host: "b"}})
		}))
	}
	g.Run()

	from, to := ring[src], ring[dst]
	if from.Count(obs.EvEnqueue) == 0 || from.Count(obs.EvDequeue) == 0 || l.Drops == 0 {
		t.Fatalf("source ring: %d enqueues, %d dequeues, link dropped %d; want all three > 0",
			from.Count(obs.EvEnqueue), from.Count(obs.EvDequeue), l.Drops)
	}
	if from.Count(obs.EvDrop) != l.Drops || from.Count(obs.EvDeliver) != 0 {
		t.Errorf("source ring: %d drops (link counted %d), %d delivers (want 0)",
			from.Count(obs.EvDrop), l.Drops, from.Count(obs.EvDeliver))
	}
	if n := to.Count(obs.EvDeliver); n != sent-l.Drops || n != l.Delivered || int(n) != len(s.pkts) || to.Total() != n {
		t.Errorf("destination ring: %d delivers of %d events; sent %d, dropped %d, link delivered %d, sink got %d",
			n, to.Total(), sent, l.Drops, l.Delivered, len(s.pkts))
	}
	for _, e := range to.Events() {
		if e.Queue != 0 {
			t.Fatalf("boundary deliver reports queue depth %d, want 0", e.Queue)
		}
	}
	if n := ring[ctrl].Total(); n != 0 {
		t.Errorf("control ring recorded %d events of a link it does not run", n)
	}
	for _, p := range s.pkts {
		p.Release()
	}
	if n := l.BoundaryPoolLive(); n != 0 {
		t.Errorf("%d boundary envelopes live after the drain", n)
	}
}

// TestPacketSizeClass: a Packet is 112 bytes, the 112-byte size class —
// the size (8), two addresses (48), the flow label (16), the payload
// (16), the send time (8), the owning pool (8) and the link it is
// propagating on (8). The drop-tail enqueue time lives in the link's
// queue slot, not here. One more word moves it to the 128-byte class,
// and every host's pool fill pays for it.
func TestPacketSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(Packet{}); got > 112 {
		t.Errorf("Packet is %d bytes, want <= 112", got)
	}
}
