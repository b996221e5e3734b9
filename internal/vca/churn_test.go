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

// serverState counts every per-client entry the SFU holds for a name.
// A released name has no live ID, and a live ID's slots are what the
// leave path must have cleared — both count as zero state.
func serverState(s *Server, name string) int {
	id := s.reg.id(name)
	if id == noID {
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
// and checks the registry's free-list recycling: the ID space (and with it
// every routing table) never grows past the call's build-time density, a
// recycled ID never aliases a live participant's state, and the whole
// storm is deterministic for a fixed seed.
func TestChurnStormKeepsTablesDense(t *testing.T) {
	storm := func(seed int64) (capAfter int, down [5]float64, origins [][]string) {
		eng := sim.New(seed)
		call := fiveParty(eng, Meet())
		capBefore := call.reg.cap()
		call.Start()
		// Interleaved leaves and rejoins: c2 and c3's IDs cross the free
		// list out of order, so rejoiners draw recycled IDs that may have
		// belonged to someone else.
		step := 2 * time.Second
		at := 4 * time.Second
		for round := 0; round < 3; round++ {
			for _, ev := range []struct {
				leave bool
				name  string
			}{{true, "c2"}, {true, "c3"}, {false, "c2"}, {true, "c4"}, {false, "c3"}, {false, "c4"}} {
				ev := ev
				if ev.leave {
					eng.Schedule(at, func() { call.Leave(ev.name) })
				} else {
					eng.Schedule(at, func() { call.Rejoin(ev.name) })
				}
				at += step
			}
		}
		eng.RunUntil(at + 10*time.Second)
		call.Stop()
		if call.reg.cap() != capBefore {
			t.Fatalf("ID space grew under churn: %d -> %d (free list not recycling)",
				capBefore, call.reg.cap())
		}
		for i, cl := range call.Clients {
			down[i] = cl.DownMeter.TotalBytes()
			origins = append(origins, cl.Origins())
		}
		return call.reg.cap(), down, origins
	}

	cap1, down1, origins1 := storm(77)
	if cap1 != 6 { // 5 clients + 1 SFU
		t.Errorf("registry cap = %d, want 6", cap1)
	}
	// No aliasing: every receiver a live client holds must belong to a
	// live participant or the SFU — never an empty (freed) binding, and
	// every live remote participant's media must be flowing again.
	for i, names := range origins1 {
		seen := map[string]bool{}
		for _, n := range names {
			if n == "" {
				t.Fatalf("client %d holds a receiver for a freed ID", i)
			}
			if seen[n] {
				t.Fatalf("client %d holds duplicate receivers for %q", i, n)
			}
			seen[n] = true
		}
	}
	if down1[0] == 0 {
		t.Fatal("c1 received nothing through the churn storm")
	}

	// Determinism: the identical storm replays to identical byte counts.
	_, down2, _ := storm(77)
	if down1 != down2 {
		t.Errorf("churn storm not deterministic: %v vs %v", down1, down2)
	}
}

// TestChurnRecycledIDStartsFresh checks that a participant rejoining onto
// a recycled ID (possibly another participant's old slot) gets virgin
// state: on the server a fresh uplink receiver, empty rate row, zeroed
// forwarding; on every other client a fresh inbound track — the one
// origin-indexed table there, so receiver and (recovery on) jitter buffer
// are forgotten in one place.
func TestChurnRecycledIDStartsFresh(t *testing.T) {
	for _, recovery := range []bool{false, true} {
		t.Run(map[bool]string{false: "recovery off", true: "recovery on"}[recovery], func(t *testing.T) {
			churnRecycledID(t, recovery)
		})
	}
}

func churnRecycledID(t *testing.T, recovery bool) {
	eng := sim.New(78)
	call := fivePartyOpt(eng, Zoom(), CallOptions{Seed: 21, Recovery: recovery})
	call.Start()
	eng.RunUntil(5 * time.Second)

	// c2 then c3 leave; c2 rejoins first, drawing c3's freed ID from the
	// LIFO free list.
	id2, id3 := call.clientByName("c2").id, call.clientByName("c3").id
	c1 := call.C1()
	old := c1.recv[id3]
	if old.recv == nil || (old.jb != nil) != recovery {
		t.Fatalf("before churn c1's track for c3 is %+v; want one built with a buffer = %v", old, recovery)
	}
	call.Leave("c2")
	call.Leave("c3")
	call.Rejoin("c2")
	got := call.clientByName("c2").id
	if got != id3 {
		t.Fatalf("c2 rejoined with ID %d, want recycled %d (LIFO)", got, id3)
	}
	if c1.recv[got] != (inbound{}) || slices.Contains(c1.recvOrder, got) || slices.Contains(c1.nackOrder, got) {
		t.Fatalf("c1 still holds c3's track (or its place in an order list) under the ID c2 now owns")
	}
	s := call.Server
	r := s.recv[got]
	if r == nil || !r.local() || r.arrivals == nil || s.legs[got] == nil {
		t.Fatal("rejoined participant's recycled slot not reset")
	}
	for k, e := range r.rates {
		if e != (rateEst{}) {
			t.Fatalf("rejoined participant inherits rate estimate %+v for key %d", e, k)
		}
	}
	if s.reg.name(got) != "c2" {
		t.Fatalf("recycled ID resolves to %q, want c2", s.reg.name(got))
	}
	// The server's cached flow-label row for the recycled ID must be gone:
	// a stale row would account c2's media under c3's name.
	if s.flows.rows[got] != nil {
		t.Fatalf("server retains stale flow labels %q for recycled ID %d", s.flows.rows[got], got)
	}
	call.Rejoin("c3")
	if call.clientByName("c3").id != id2 {
		t.Fatalf("c3 rejoined with ID %d, want recycled %d", call.clientByName("c3").id, id2)
	}
	eng.RunUntil(15 * time.Second)
	call.Stop()
	// Both rejoiners flow media again, each under their own identity.
	for _, name := range []string{"c2", "c3"} {
		cl := call.clientByName(name)
		if cl.UpMeter.MeanRateMbps(10*time.Second, 15*time.Second) <= 0 {
			t.Errorf("rejoined %s sends nothing", name)
		}
		if call.C1().Receiver(name).DisplayedFrames() == 0 {
			t.Errorf("c1 never displayed rejoined %s", name)
		}
	}
	// c1's track for the newcomer shares nothing with the one it recycled.
	fresh := c1.recv[got]
	if fresh.recv == nil || fresh.recv == old.recv || (fresh.jb != nil) != recovery || (recovery && fresh.jb == old.jb) {
		t.Errorf("c1's track for rejoined c2 is %+v, c3's was %+v; want a fresh receiver and a fresh buffer = %v", fresh, old, recovery)
	}
	if c1.Receiver("c2") != fresh.recv {
		t.Error("c2's name does not resolve to the track under its recycled ID")
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
		if mp, ok := p.Payload.(*MediaPacket); ok && !mp.Padding && mp.Origin == "c1" {
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
