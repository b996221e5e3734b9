package vca

import (
	"slices"
	"testing"
	"time"

	"vcalab/internal/netem"
	"vcalab/internal/sim"
)

// fiveParty builds a 5-party single-SFU call on an unconstrained lab.
func fiveParty(eng *sim.Engine, prof *Profile) *Call {
	return fivePartyOpt(eng, prof, CallOptions{Seed: 21})
}

func fivePartyOpt(eng *sim.Engine, prof *Profile, opt CallOptions) *Call {
	l := newLab(eng, 0, 0)
	hosts := []*netem.Host{l.clientHost("c1")}
	for i := 2; i <= 5; i++ {
		hosts = append(hosts, l.remoteHost(hostName(i), 5*time.Millisecond))
	}
	sfu := l.remoteHost("sfu", 15*time.Millisecond)
	return NewCall(eng, prof, sfu, hosts, opt)
}

// serverState counts every per-client entry the SFU holds for a name,
// present or departed: a departed participant keeps its ID, whose slots
// are what the leave path must have cleared.
func serverState(s *Server, name string) int {
	id, ok := s.reg.ids[name]
	if !ok {
		return 0
	}
	n := 0
	if s.recv[id] != nil {
		n++
	}
	if s.legs[id] != nil {
		n++
	}
	if s.displayed[id] != nil {
		n++
	}
	for _, rid := range s.legOrder {
		if l := s.legs[rid]; l != nil && l.fwd[id] != nil {
			n++
		}
	}
	for _, c := range s.clients {
		if c == id {
			n++
		}
	}
	return n
}

// legCount reports how many legs the server currently holds.
func legCount(s *Server) int {
	n := 0
	for _, l := range s.legs {
		if l != nil {
			n++
		}
	}
	return n
}

// rateRows reports how many origins have live rate-estimator rows.
func rateRows(s *Server) int {
	n := 0
	for _, r := range s.recv {
		if r != nil && len(r.rates) > 0 {
			n++
		}
	}
	return n
}

// upRecvCount reports how many local uplink receivers the server holds.
func upRecvCount(s *Server) int {
	n := 0
	for _, r := range s.recv {
		if r != nil && r.local() {
			n++
		}
	}
	return n
}

func TestLeaveCleansServerState(t *testing.T) {
	eng := sim.New(22)
	call := fiveParty(eng, Zoom())
	call.Start()
	eng.RunUntil(10 * time.Second)

	s := call.Server
	if serverState(s, "c3") == 0 {
		t.Fatal("no server state for c3 before leave")
	}
	call.Leave("c3")
	// The leak this guards against: rateEst and upRecv entries surviving
	// for the whole call after a participant leaves.
	if n := serverState(s, "c3"); n != 0 {
		t.Errorf("server retains %d state entries for departed c3", n)
	}
	if len(s.clients) != 4 || legCount(s) != 4 || rateRows(s) != 4 || upRecvCount(s) != 4 {
		t.Errorf("server sizes after leave: clients=%d legs=%d rates=%d upRecv=%d, want 4 each",
			len(s.clients), legCount(s), rateRows(s), upRecvCount(s))
	}

	// The call keeps flowing for the remaining participants…
	before := call.C1().DownMeter.TotalBytes()
	eng.RunUntil(20 * time.Second)
	if call.C1().DownMeter.TotalBytes() <= before {
		t.Error("c1 stopped receiving after c3 left")
	}
	// …and the departed client goes silent.
	c3 := call.Clients[2]
	sent := c3.UpMeter.TotalBytes()
	eng.RunUntil(22 * time.Second)
	if c3.UpMeter.TotalBytes() != sent {
		t.Error("c3 kept sending after leaving")
	}
	call.Stop()
}

func TestRejoinRestoresMedia(t *testing.T) {
	eng := sim.New(23)
	call := fiveParty(eng, Meet())
	call.Start()
	eng.RunUntil(8 * time.Second)
	call.Leave("c4")
	eng.RunUntil(16 * time.Second)
	if call.Active("c4") {
		t.Fatal("c4 still active after leave")
	}
	call.Rejoin("c4")
	if !call.Active("c4") {
		t.Fatal("c4 not active after rejoin")
	}
	if n := serverState(call.Server, "c4"); n == 0 {
		t.Error("no server state recreated for rejoined c4")
	}
	c4 := call.Clients[3]
	sentAt := c4.UpMeter.TotalBytes()
	recvAt := c4.DownMeter.TotalBytes()
	eng.RunUntil(30 * time.Second)
	call.Stop()
	if c4.UpMeter.TotalBytes() <= sentAt {
		t.Error("rejoined c4 sends no media")
	}
	if c4.DownMeter.TotalBytes() <= recvAt {
		t.Error("rejoined c4 receives no media")
	}
	// Leave/rejoin cycles must not grow server state (the churn leak).
	if rateRows(call.Server) != 5 || upRecvCount(call.Server) != 5 {
		t.Errorf("server table sizes after rejoin: rates=%d upRecv=%d, want 5",
			rateRows(call.Server), upRecvCount(call.Server))
	}
}

func TestLeaveIdempotentAndUnknown(t *testing.T) {
	eng := sim.New(24)
	call := fiveParty(eng, Teams())
	call.Start()
	eng.RunUntil(2 * time.Second)
	call.Leave("c9") // unknown: no-op
	call.Leave("c2")
	call.Leave("c2")  // double leave: no-op
	call.Rejoin("c3") // never left: no-op
	eng.RunUntil(4 * time.Second)
	call.Stop()
	if len(call.Server.clients) != 4 {
		t.Errorf("clients = %d after churn no-ops, want 4", len(call.Server.clients))
	}
}

// TestChurnStormKeepsTablesDense drives interleaved Leave/Rejoin storms
// and checks that every participant keeps its ID for the whole call: the
// ID space (and with it every routing table) stays at the call's
// build-time density, no client holds a receiver for someone not in the
// call, and the whole storm is deterministic for a fixed seed.
func TestChurnStormKeepsTablesDense(t *testing.T) {
	storm := func(seed int64) (down [5]float64) {
		eng := sim.New(seed)
		call := fiveParty(eng, Meet())
		ids := make([]int32, len(call.Clients))
		for i, cl := range call.Clients {
			ids[i] = cl.id
		}
		call.Start()
		// Interleaved leaves and rejoins: c2, c3 and c4 leave and come
		// back out of order, with their packets still in flight.
		step := 2 * time.Second
		at := 4 * time.Second
		for round := 0; round < 3; round++ {
			for _, ev := range []struct {
				leave bool
				name  string
			}{{true, "c2"}, {true, "c3"}, {false, "c2"}, {true, "c4"}, {false, "c3"}, {false, "c4"}} {
				ev := ev
				if ev.leave {
					eng.ScheduleHandler(at, sim.HandlerFunc(func(time.Duration) { call.Leave(ev.name) }))
				} else {
					eng.ScheduleHandler(at, sim.HandlerFunc(func(time.Duration) { call.Rejoin(ev.name) }))
				}
				at += step
			}
		}
		eng.RunUntil(at + 10*time.Second)
		call.Stop()
		if got := call.reg.cap(); got != 6 { // 5 clients + 1 SFU
			t.Fatalf("ID space = %d after churn, want 6", got)
		}
		for i, cl := range call.Clients {
			if cl.id != ids[i] {
				t.Fatalf("%s holds ID %d after churn, want its own %d", cl.Name, cl.id, ids[i])
			}
			// Every receiver a client holds belongs to a participant in
			// the call, once.
			seen := map[string]bool{}
			for _, n := range cl.Origins() {
				if !call.Active(n) {
					t.Fatalf("client %d holds a receiver for %q, who is not in the call", i, n)
				}
				if seen[n] {
					t.Fatalf("client %d holds duplicate receivers for %q", i, n)
				}
				seen[n] = true
			}
			down[i] = cl.DownMeter.TotalBytes()
		}
		return down
	}

	down1 := storm(77)
	if down1[0] == 0 {
		t.Fatal("c1 received nothing through the churn storm")
	}
	// Determinism: the identical storm replays to identical byte counts.
	if down2 := storm(77); down1 != down2 {
		t.Errorf("churn storm not deterministic: %v vs %v", down1, down2)
	}
}

// TestChurnRejoinStartsFresh checks that a participant rejoining under its
// own ID gets virgin state: on the server a fresh uplink receiver, empty
// rate row, zeroed forwarding and no cached flow labels; on every other
// client a fresh inbound track — the one origin-indexed table there, so
// receiver and (recovery on) jitter buffer are forgotten in one place.
// What is the participant's own survives: its sender-side recovery
// counters, which another departure in between must not disturb.
func TestChurnRejoinStartsFresh(t *testing.T) {
	for _, recovery := range []bool{false, true} {
		t.Run(map[bool]string{false: "recovery off", true: "recovery on"}[recovery], func(t *testing.T) {
			churnRejoin(t, recovery)
		})
	}
}

func churnRejoin(t *testing.T, recovery bool) {
	eng := sim.New(78)
	call := fivePartyOpt(eng, Zoom(), CallOptions{Seed: 21, Recovery: recovery})
	call.Server.host.Uplink().SetImpairment(0.03, 0)
	call.Start()
	eng.RunUntil(10 * time.Second)

	c1, c2, c3 := call.C1(), call.clientByName("c2"), call.clientByName("c3")
	id2, id3 := c2.id, c3.id
	old := c1.recv[id2]
	if old.recv == nil || (old.jb != nil) != recovery {
		t.Fatalf("before churn c1's track for c2 is %+v; want one built with a buffer = %v", old, recovery)
	}
	nacks2 := c2.StatsReport(eng.Now()).Outbound.NackCount
	nacks3 := c3.StatsReport(eng.Now()).Outbound.NackCount
	if recovery && (nacks2 == 0 || nacks2 == nacks3) {
		t.Fatalf("NACK counts c2 %d, c3 %d: want distinct and nonzero under 3%% loss", nacks2, nacks3)
	}

	// c2 then c3 leave; c2 rejoins first, while c3 is still away.
	call.Leave("c2")
	call.Leave("c3")
	call.Rejoin("c2")
	if got := c2.StatsReport(eng.Now()).Outbound.NackCount; got != nacks2 {
		t.Errorf("rejoined c2 reads NACK count %d, want its own %d (c3's is %d)", got, nacks2, nacks3)
	}
	if c2.id != id2 {
		t.Fatalf("c2 rejoined with ID %d, want its own %d", c2.id, id2)
	}
	if c1.recv[id2] != (inbound{}) || slices.Contains(c1.recvOrder, id2) || slices.Contains(c1.nackOrder, id2) {
		t.Fatalf("c1 still holds c2's old track (or its place in an order list)")
	}
	s := call.Server
	r := s.recv[id2]
	if r == nil || !r.local() || r.arrivals == nil || s.legs[id2] == nil {
		t.Fatal("rejoined participant's slot not rebuilt")
	}
	for k, e := range r.rates {
		if e != (rateEst{}) {
			t.Fatalf("rejoined participant inherits rate estimate %+v for key %d", e, k)
		}
	}
	if s.flows.rows[id2] != nil {
		t.Fatalf("server retains flow labels %q for rejoined ID %d", s.flows.rows[id2], id2)
	}
	call.Rejoin("c3")
	if c3.id != id3 {
		t.Fatalf("c3 rejoined with ID %d, want its own %d", c3.id, id3)
	}
	eng.RunUntil(20 * time.Second)
	call.Stop()
	// Both rejoiners flow media again, each under their own identity.
	for _, cl := range []*Client{c2, c3} {
		if cl.UpMeter.MeanRateMbps(15*time.Second, 20*time.Second) <= 0 {
			t.Errorf("rejoined %s sends nothing", cl.Name)
		}
		if c1.Receiver(cl.Name).DisplayedFrames() == 0 {
			t.Errorf("c1 never displayed rejoined %s", cl.Name)
		}
	}
	// c1's track for the rejoiner shares nothing with its old one.
	fresh := c1.recv[id2]
	if fresh.recv == nil || fresh.recv == old.recv || (fresh.jb != nil) != recovery || (recovery && fresh.jb == old.jb) {
		t.Errorf("c1's track for rejoined c2 is %+v, the old one %+v; want a fresh receiver and a fresh buffer = %v", fresh, old, recovery)
	}
	if c1.Receiver("c2") != fresh.recv {
		t.Error("c2's name does not resolve to the track under its ID")
	}
}

// miniCascade wires a 2-region cascaded Teams/Meet/Zoom call by hand (the
// cascade package owns the nicer builder; vca tests stay self-contained).
func miniCascade(eng *sim.Engine, prof *Profile, seed int64) (*Call, *netem.Link) {
	rtA, rtB := netem.NewRouter("rtA"), netem.NewRouter("rtB")
	inter := netem.LinkConfig{RateBps: 20e6, Delay: 30 * time.Millisecond}
	ab, ba := netem.NewLink(eng, "inter/fwd", inter, rtB), netem.NewLink(eng, "inter/rev", inter, rtA)
	mk := func(name string, rt *netem.Router, far *netem.Router, farLink *netem.Link) *netem.Host {
		h := netem.NewHost(eng, name)
		netem.Attach(eng, h, rt, netem.LinkConfig{Delay: 2 * time.Millisecond})
		far.Route(name, farLink)
		return h
	}
	sfuA := mk("sfu-a", rtA, rtB, ba)
	c1 := mk("c1", rtA, rtB, ba)
	c3 := mk("c3", rtA, rtB, ba)
	sfuB := mk("sfu-b", rtB, rtA, ab)
	c2 := mk("c2", rtB, rtA, ab)
	c4 := mk("c4", rtB, rtA, ab)
	call := NewCascadedCall(eng, prof, []CascadePlacement{
		{Server: sfuA, Clients: []*netem.Host{c1, c3}},
		{Server: sfuB, Clients: []*netem.Host{c2, c4}},
	}, CallOptions{Seed: seed})
	return call, ab
}

func TestCascadeChurnCleansRemoteState(t *testing.T) {
	eng := sim.New(25)
	call, _ := miniCascade(eng, Zoom(), 25)
	call.Start()
	eng.RunUntil(8 * time.Second)

	sA, sB := call.Servers[0], call.Servers[1]
	if serverState(sB, "c1") == 0 {
		t.Fatal("no remote state for c1 on region-B server before leave")
	}
	call.Leave("c1")
	if n := serverState(sA, "c1"); n != 0 {
		t.Errorf("home server retains %d entries for departed c1", n)
	}
	if n := serverState(sB, "c1"); n != 0 {
		t.Errorf("remote server retains %d entries for departed c1 (cascade churn leak)", n)
	}
	before := call.Clients[1].DownMeter.TotalBytes() // c2
	eng.RunUntil(16 * time.Second)
	if call.Clients[1].DownMeter.TotalBytes() <= before {
		t.Error("cascade stopped flowing after remote leave")
	}

	call.Rejoin("c1")
	eng.RunUntil(28 * time.Second)
	call.Stop()
	if serverState(sB, "c1") == 0 {
		t.Error("remote state for c1 not recreated on rejoin")
	}
	c1 := call.C1()
	if c1.UpMeter.MeanRateMbps(20*time.Second, 28*time.Second) <= 0 {
		t.Error("rejoined c1 sends nothing")
	}
	if call.Clients[1].Receiver("c1").DisplayedFrames() == 0 {
		t.Error("remote receiver never displayed rejoined c1")
	}
}

func TestCascadeTwoPartyTeamsStaysEndToEnd(t *testing.T) {
	// A 1+1 cascaded Teams call is a pure relay chain: both hops
	// pass-through, original sequence numbers survive to the receiver.
	eng := sim.New(26)
	rtA, rtB := netem.NewRouter("rtA"), netem.NewRouter("rtB")
	inter := netem.LinkConfig{RateBps: 10e6, Delay: 25 * time.Millisecond}
	ab, ba := netem.NewLink(eng, "inter/fwd", inter, rtB), netem.NewLink(eng, "inter/rev", inter, rtA)
	mk := func(name string, rt *netem.Router, far *netem.Router, farLink *netem.Link) *netem.Host {
		h := netem.NewHost(eng, name)
		netem.Attach(eng, h, rt, netem.LinkConfig{Delay: 2 * time.Millisecond})
		far.Route(name, farLink)
		return h
	}
	sfuA := mk("sfu-a", rtA, rtB, ba)
	c1 := mk("c1", rtA, rtB, ba)
	sfuB := mk("sfu-b", rtB, rtA, ab)
	c2 := mk("c2", rtB, rtA, ab)
	call := NewCascadedCall(eng, Teams(), []CascadePlacement{
		{Server: sfuA, Clients: []*netem.Host{c1}},
		{Server: sfuB, Clients: []*netem.Host{c2}},
	}, CallOptions{Seed: 26})

	var e2e, total int
	c2.Tap(func(p *netem.Packet) {
		if mp, ok := p.Payload.(*MediaPacket); ok && !mp.Padding && mp.OriginID == call.C1().id {
			total++
			if mp.E2E {
				e2e++
			}
		}
	})
	call.Start()
	eng.RunUntil(15 * time.Second)
	call.Stop()
	if total == 0 || e2e != total {
		t.Errorf("two-hop teams relay: %d/%d packets end-to-end, want all", e2e, total)
	}
	up := call.C1().UpMeter.MeanRateMbps(8*time.Second, 15*time.Second)
	if up < 0.8 {
		t.Errorf("cascaded 2-party teams uplink = %.2f Mbps, want near nominal", up)
	}
}
