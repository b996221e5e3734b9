package sim

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"
)

// logMsg appends "now/v" to a shared log when it is dispatched.
type logMsg struct {
	log *[]string
	v   string
}

func (m logMsg) OnEvent(now time.Duration) {
	*m.log = append(*m.log, fmt.Sprintf("%v/%v", now, m.v))
}

func TestRunBeforeSemantics(t *testing.T) {
	var log []string
	e := New(1)
	e.inject(10*time.Millisecond, 3*time.Millisecond, 0, 0, logMsg{&log, "a"})
	e.inject(10*time.Millisecond, 7*time.Millisecond, 0, 1, logMsg{&log, "b"})
	e.inject(12*time.Millisecond, 0, 0, 2, logMsg{&log, "c"})

	e.RunBefore(10*time.Millisecond, math.MinInt64)
	if len(log) != 0 {
		t.Fatalf("MinInt64 schedLimit must exclude everything at atLimit, ran %v", log)
	}
	e.RunBefore(10*time.Millisecond, 7*time.Millisecond)
	if want := []string{"10ms/a"}; !reflect.DeepEqual(log, want) {
		t.Fatalf("schedAt<limit slice: got %v want %v", log, want)
	}
	e.RunBefore(10*time.Millisecond, math.MaxInt64)
	if want := []string{"10ms/a", "10ms/b"}; !reflect.DeepEqual(log, want) {
		t.Fatalf("MaxInt64 schedLimit must include atLimit: got %v want %v", log, want)
	}
	e.RunBefore(12*time.Millisecond, math.MaxInt64)
	if want := []string{"10ms/a", "10ms/b", "12ms/c"}; !reflect.DeepEqual(log, want) {
		t.Fatalf("got %v want %v", log, want)
	}
	if e.Live() != 0 {
		t.Fatalf("live events after drain: %d", e.Live())
	}
}

// TestInjectTieOrder is the cross-shard merge table test: events due at
// the same instant order by (schedAt, src, seq), so same-instant arrivals
// from different shards merge in a fixed, shard-index order.
func TestInjectTieOrder(t *testing.T) {
	var log []string
	e := New(1)
	at := 10 * time.Millisecond
	// Filed out of order on purpose: the heap must sort purely by key.
	e.inject(at, 5*time.Millisecond, 2, 7, logMsg{&log, "src2"})
	e.inject(at, 5*time.Millisecond, 1, 9, logMsg{&log, "src1-late"})
	e.inject(at, 5*time.Millisecond, 0, 4, logMsg{&log, "ctrl"})
	e.inject(at, 5*time.Millisecond, 1, 2, logMsg{&log, "src1-early"})
	e.inject(at, 4*time.Millisecond, 3, 0, logMsg{&log, "earlier-schedAt"})
	e.Run()
	want := []string{
		"10ms/earlier-schedAt", // schedAt beats src and seq
		"10ms/ctrl",            // control domain wins same-(at,schedAt) ties
		"10ms/src1-early",      // then shard index...
		"10ms/src1-late",       // ...then source seq within a shard
		"10ms/src2",
	}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("merge order:\n got %v\nwant %v", log, want)
	}
}

// pingNode bounces a hop count between two peers, recording every
// receipt and a same-instant local event — the same code runs on one
// sequential engine and split across two shards, and the logs must match
// byte for byte.
type pingNode struct {
	name string
	eng  *Engine
	log  *[]string
	send func(v int)
}

// ping is one bounce in flight: the event that delivers hop count v to
// node to.
type ping struct {
	to *pingNode
	v  int
}

func (p ping) OnEvent(now time.Duration) { p.to.recv(now, p.v) }

func (n *pingNode) recv(now time.Duration, v int) {
	*n.log = append(*n.log, fmt.Sprintf("%s@%v:%d", n.name, now, v))
	n.eng.ScheduleHandler(0, HandlerFunc(func(time.Duration) {
		*n.log = append(*n.log, fmt.Sprintf("%s-local@%v", n.name, n.eng.Now()))
	}))
	if v > 0 {
		n.send(v - 1)
	}
}

const pingDelay = 10 * time.Millisecond

func runSequentialPing(hops int, until time.Duration) ([]string, *Engine) {
	var log []string
	eng := New(42)
	a := &pingNode{name: "a", eng: eng, log: &log}
	b := &pingNode{name: "b", eng: eng, log: &log}
	a.send = func(v int) { eng.ScheduleHandler(pingDelay, ping{b, v}) }
	b.send = func(v int) { eng.ScheduleHandler(pingDelay, ping{a, v}) }
	tick := eng.EveryHandler(7*time.Millisecond, HandlerFunc(func(time.Duration) {
		log = append(log, fmt.Sprintf("tick@%v", eng.Now()))
	}))
	eng.ScheduleHandler(0, ping{a, hops})
	eng.RunUntil(until)
	tick.Stop()
	eng.Run()
	return log, eng
}

func runShardedPing(t *testing.T, hops int, until time.Duration) []string {
	t.Helper()
	var log []string
	ctrl := New(42)
	sa, sb := New(43), New(44)
	g := NewGroup(ctrl, []*Engine{sa, sb}, func() time.Duration { return pingDelay })
	defer g.Close()
	a := &pingNode{name: "a", eng: sa, log: &log}
	b := &pingNode{name: "b", eng: sb, log: &log}
	mab := NewMailbox(sa, sb, nil)
	mba := NewMailbox(sb, sa, nil)
	g.Register(mab)
	g.Register(mba)
	a.send = func(v int) { mab.Post(sa.Now()+pingDelay, sa.Now(), sa.TakeSeq(), ping{b, v}) }
	b.send = func(v int) { mba.Post(sb.Now()+pingDelay, sb.Now(), sb.TakeSeq(), ping{a, v}) }
	tick := ctrl.EveryHandler(7*time.Millisecond, HandlerFunc(func(time.Duration) {
		// Barrier contract: every shard is parked with its clock advanced
		// to exactly the global's instant before the callback runs.
		if sa.Now() != ctrl.Now() || sb.Now() != ctrl.Now() {
			t.Errorf("global at %v ran with shard clocks %v/%v", ctrl.Now(), sa.Now(), sb.Now())
		}
		log = append(log, fmt.Sprintf("tick@%v", ctrl.Now()))
	}))
	sa.ScheduleHandler(0, ping{a, hops})
	g.RunUntil(until)
	tick.Stop()
	g.Run()

	if g.Live() != 0 {
		t.Fatalf("group live events after drain: %d", g.Live())
	}
	if g.Pending() != 0 {
		t.Fatalf("group pending events after drain: %d", g.Pending())
	}
	if sa.Processed()+sb.Processed() == 0 {
		t.Fatal("shard processed counters never advanced")
	}
	return log
}

// TestGroupMatchesSequential is the sharded-equivalence anchor: a
// cross-shard ping-pong with same-instant local events and a window-
// interior global ticker produces the exact sequential event order,
// including a partial RunUntil horizon and the post-stop full drain.
func TestGroupMatchesSequential(t *testing.T) {
	for _, until := range []time.Duration{0, 33 * time.Millisecond, 100 * time.Millisecond} {
		seq, _ := runSequentialPing(7, until)
		shard := runShardedPing(t, 7, until)
		if !reflect.DeepEqual(seq, shard) {
			t.Fatalf("until=%v: sharded log diverges\n seq   %v\n shard %v", until, seq, shard)
		}
		again := runShardedPing(t, 7, until)
		if !reflect.DeepEqual(shard, again) {
			t.Fatalf("until=%v: sharded run not deterministic", until)
		}
	}
}

// TestGroupMatchesSequentialOnLanes runs the ping-pong long enough that
// the sequential engine serves the bounce, the local events and the
// ticker from lanes, while the shards receive every bounce through
// inject (heap) and only the rest through lanes: which queue an event
// sat in must not show in the log.
func TestGroupMatchesSequentialOnLanes(t *testing.T) {
	const hops, until = 150, 900 * time.Millisecond
	seq, eng := runSequentialPing(hops, until)
	for _, d := range []time.Duration{0, 7 * time.Millisecond, pingDelay} {
		if !hasLane(eng, d) {
			t.Fatalf("sequential run never opened a lane for %v: %v", d, eng.laneDelay[:eng.nLanes])
		}
	}
	if shard := runShardedPing(t, hops, until); !reflect.DeepEqual(seq, shard) {
		t.Fatalf("sharded log diverges from the sequential one (%d vs %d entries)", len(shard), len(seq))
	}
}

// TestCrossShardSameInstantOrder pins the residual-ambiguity rule: two
// shards posting to a third at the same instant with the same source
// clock merge in shard-index order, regardless of mailbox registration
// or posting order.
func TestCrossShardSameInstantOrder(t *testing.T) {
	for _, swapReg := range []bool{false, true} {
		var log []string
		ctrl := New(1)
		s1, s2, s3 := New(2), New(3), New(4)
		g := NewGroup(ctrl, []*Engine{s1, s2, s3}, func() time.Duration { return pingDelay })
		m13 := NewMailbox(s1, s3, nil)
		m23 := NewMailbox(s2, s3, nil)
		if swapReg {
			g.Register(m23)
			g.Register(m13)
		} else {
			g.Register(m13)
			g.Register(m23)
		}
		// Shard 2 posts first; shard-index order must still win.
		s2.ScheduleHandler(0, HandlerFunc(func(time.Duration) { m23.Post(s2.Now()+pingDelay, s2.Now(), s2.TakeSeq(), logMsg{&log, "from-s2"}) }))
		s1.ScheduleHandler(0, HandlerFunc(func(time.Duration) { m13.Post(s1.Now()+pingDelay, s1.Now(), s1.TakeSeq(), logMsg{&log, "from-s1"}) }))
		g.RunUntil(pingDelay)
		g.Close()
		want := []string{"10ms/from-s1", "10ms/from-s2"}
		if !reflect.DeepEqual(log, want) {
			t.Fatalf("swapReg=%v: got %v want %v", swapReg, log, want)
		}
	}
}

func TestMailboxTransfer(t *testing.T) {
	var log []string
	ctrl := New(1)
	s1, s2 := New(2), New(3)
	g := NewGroup(ctrl, []*Engine{s1, s2}, func() time.Duration { return pingDelay })
	defer g.Close()
	m := NewMailbox(s1, s2, func(h Handler) Handler {
		msg := h.(logMsg)
		msg.v = "transferred:" + msg.v
		return msg
	})
	g.Register(m)
	s1.ScheduleHandler(0, HandlerFunc(func(time.Duration) { m.Post(s1.Now()+pingDelay, s1.Now(), s1.TakeSeq(), logMsg{&log, "payload"}) }))
	g.RunUntil(pingDelay)
	if want := []string{"10ms/transferred:payload"}; !reflect.DeepEqual(log, want) {
		t.Fatalf("transfer hook: got %v want %v", log, want)
	}
}

func TestGroupRunUntilAdvancesIdleClocks(t *testing.T) {
	ctrl := New(1)
	s1 := New(2)
	g := NewGroup(ctrl, []*Engine{s1}, func() time.Duration { return pingDelay })
	defer g.Close()
	g.RunUntil(250 * time.Millisecond)
	if ctrl.Now() != 250*time.Millisecond || s1.Now() != 250*time.Millisecond {
		t.Fatalf("clocks after idle RunUntil: ctrl=%v shard=%v", ctrl.Now(), s1.Now())
	}
}

func TestGroupLookaheadMustStayPositive(t *testing.T) {
	ctrl := New(1)
	s1 := New(2)
	g := NewGroup(ctrl, []*Engine{s1}, func() time.Duration { return 0 })
	defer g.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("zero lookahead must panic")
		}
	}()
	g.RunUntil(time.Millisecond)
}
