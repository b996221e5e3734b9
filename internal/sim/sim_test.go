package sim

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"vcalab/internal/race"
)

func TestScheduleOrdering(t *testing.T) {
	e := New(1)
	var got []int
	e.ScheduleHandler(30*time.Millisecond, HandlerFunc(func(time.Duration) { got = append(got, 3) }))
	e.ScheduleHandler(10*time.Millisecond, HandlerFunc(func(time.Duration) { got = append(got, 1) }))
	e.ScheduleHandler(20*time.Millisecond, HandlerFunc(func(time.Duration) { got = append(got, 2) }))
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30*time.Millisecond {
		t.Errorf("Now() = %v, want 30ms", e.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.ScheduleHandler(time.Second, HandlerFunc(func(time.Duration) { got = append(got, i) }))
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-instant events out of FIFO order: %v", got)
		}
	}
}

func TestNegativeDelayClampedToNow(t *testing.T) {
	e := New(1)
	e.ScheduleHandler(time.Second, HandlerFunc(func(time.Duration) {
		e.ScheduleHandler(-time.Hour, HandlerFunc(func(time.Duration) {
			if e.Now() != time.Second {
				t.Errorf("negative delay fired at %v, want 1s", e.Now())
			}
		}))
	}))
	e.Run()
}

func TestTimerStop(t *testing.T) {
	e := New(1)
	fired := false
	tm := e.ScheduleHandler(time.Second, HandlerFunc(func(time.Duration) { fired = true }))
	if !tm.Stop() {
		t.Fatal("Stop() = false on pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop() = true, want false")
	}
	e.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	e := New(1)
	tm := e.ScheduleHandler(time.Millisecond, HandlerFunc(func(time.Duration) {}))
	e.Run()
	if tm.Stop() {
		t.Fatal("Stop() = true after timer fired")
	}
}

func TestRunUntil(t *testing.T) {
	e := New(1)
	count := 0
	e.EveryHandler(time.Second, HandlerFunc(func(time.Duration) { count++ }))
	e.RunUntil(5500 * time.Millisecond)
	if count != 5 {
		t.Errorf("ticks = %d, want 5", count)
	}
	if e.Now() != 5500*time.Millisecond {
		t.Errorf("Now() = %v, want 5.5s", e.Now())
	}
	// Ticker must survive RunUntil and keep going.
	e.RunUntil(10 * time.Second)
	if count != 10 {
		t.Errorf("ticks after second RunUntil = %d, want 10", count)
	}
}

func TestTickerStop(t *testing.T) {
	e := New(1)
	count := 0
	var tk *Ticker
	tk = e.EveryHandler(time.Second, HandlerFunc(func(time.Duration) {
		count++
		if count == 3 {
			tk.Stop()
		}
	}))
	e.RunUntil(time.Minute)
	if count != 3 {
		t.Errorf("ticks = %d, want 3 (stop from within callback)", count)
	}
}

func TestTickerZeroIntervalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("EveryHandler(0, ...) did not panic")
		}
	}()
	New(1).EveryHandler(0, HandlerFunc(func(time.Duration) {}))
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []int64 {
		e := New(seed)
		var draws []int64
		e.EveryHandler(time.Millisecond, HandlerFunc(func(time.Duration) {
			draws = append(draws, e.Rand().Int63n(1000))
		}))
		e.RunUntil(50 * time.Millisecond)
		return draws
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if i < len(c) && a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical draws")
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New(1)
	depth := 0
	var recurse HandlerFunc
	recurse = func(time.Duration) {
		depth++
		if depth < 100 {
			e.ScheduleHandler(time.Millisecond, recurse)
		}
	}
	e.ScheduleHandler(0, recurse)
	e.Run()
	if depth != 100 {
		t.Errorf("depth = %d, want 100", depth)
	}
	if e.Now() != 99*time.Millisecond {
		t.Errorf("Now() = %v, want 99ms", e.Now())
	}
}

func TestPending(t *testing.T) {
	e := New(1)
	t1 := e.ScheduleHandler(time.Second, HandlerFunc(func(time.Duration) {}))
	e.ScheduleHandler(2*time.Second, HandlerFunc(func(time.Duration) {}))
	if e.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", e.Pending())
	}
	t1.Stop()
	if e.Pending() != 1 {
		t.Fatalf("Pending() after Stop = %d, want 1", e.Pending())
	}
}

// Property: for any set of non-negative delays, events fire in sorted order
// of their absolute times.
func TestQuickEventOrdering(t *testing.T) {
	f := func(delaysMS []uint16) bool {
		e := New(7)
		var fired []time.Duration
		for _, d := range delaysMS {
			e.ScheduleHandler(time.Duration(d)*time.Millisecond, HandlerFunc(func(time.Duration) {
				fired = append(fired, e.Now())
			}))
		}
		e.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delaysMS)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: virtual time never moves backwards across arbitrary mixes of
// top-level and nested ScheduleHandler calls.
func TestQuickMonotonicClock(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		e := New(seed)
		last := time.Duration(-1)
		ok := true
		var spawn func(rem int)
		spawn = func(rem int) {
			if e.Now() < last {
				ok = false
			}
			last = e.Now()
			if rem > 0 {
				e.ScheduleHandler(time.Duration(e.Rand().Intn(1000))*time.Microsecond, HandlerFunc(func(time.Duration) { spawn(rem - 1) }))
			}
		}
		for i := 0; i < int(n%8)+1; i++ {
			e.ScheduleHandler(time.Duration(e.Rand().Intn(1000))*time.Microsecond, HandlerFunc(func(time.Duration) { spawn(int(n) % 32) }))
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// --- pooled-engine edge cases the packet-path refactor must preserve ---

// Same-instant FIFO must survive event-struct reuse: fire a batch (events
// return to the free list in some order), then schedule a second
// same-instant batch that reuses those structs.
func TestSameInstantFIFOAcrossPoolReuse(t *testing.T) {
	e := New(1)
	var got []int
	for i := 0; i < 20; i++ {
		i := i
		e.ScheduleHandler(time.Second, HandlerFunc(func(time.Duration) { got = append(got, i) }))
	}
	// Cancel a few to scramble the free-list order at collection time.
	tm := e.ScheduleHandler(time.Second, HandlerFunc(func(time.Duration) { t.Error("cancelled event fired") }))
	tm.Stop()
	e.Run()
	for i := 0; i < 20; i++ {
		if got[i] != i {
			t.Fatalf("first batch out of FIFO order: %v", got)
		}
	}
	got = nil
	for i := 0; i < 20; i++ {
		i := i
		e.ScheduleHandler(time.Millisecond, HandlerFunc(func(time.Duration) { got = append(got, i) })) // reuses pooled structs
	}
	e.Run()
	for i := 0; i < 20; i++ {
		if got[i] != i {
			t.Fatalf("second (pool-reusing) batch out of FIFO order: %v", got)
		}
	}
}

// Timer.Stop from inside a firing callback: stopping yourself reports
// false (the event already fired); stopping a later same-instant timer
// must still prevent it from firing.
func TestTimerStopInsideFiringCallback(t *testing.T) {
	e := New(1)
	var self, victim Timer
	victimFired := false
	self = e.ScheduleHandler(time.Second, HandlerFunc(func(time.Duration) {
		if self.Stop() {
			t.Error("Stop() on the timer currently firing returned true")
		}
		if !victim.Stop() {
			t.Error("Stop() on a pending same-instant timer returned false")
		}
	}))
	victim = e.ScheduleHandler(time.Second, HandlerFunc(func(time.Duration) { victimFired = true }))
	e.Run()
	if victimFired {
		t.Fatal("timer stopped from a firing callback still fired")
	}
}

// A stale Timer handle must not cancel an unrelated reuse of the same
// pooled event struct (generation guard).
func TestStaleTimerHandleAfterReuse(t *testing.T) {
	e := New(1)
	t1 := e.ScheduleHandler(time.Millisecond, HandlerFunc(func(time.Duration) {}))
	e.Run()
	fired := false
	e.ScheduleHandler(time.Millisecond, HandlerFunc(func(time.Duration) { fired = true })) // reuses t1's struct
	if t1.Stop() {
		t.Fatal("stale handle Stop() returned true")
	}
	e.Run()
	if !fired {
		t.Fatal("stale handle cancelled an unrelated reused event")
	}
}

// Ticker stop/restart semantics: Stop is final, and a replacement ticker
// picks up cleanly.
func TestTickerStopThenRestart(t *testing.T) {
	e := New(1)
	count := 0
	tk := e.EveryHandler(time.Second, HandlerFunc(func(time.Duration) { count++ }))
	e.RunUntil(3500 * time.Millisecond)
	tk.Stop()
	e.RunUntil(10 * time.Second)
	if count != 3 {
		t.Fatalf("stopped ticker ticked: count = %d, want 3", count)
	}
	count = 0
	e.EveryHandler(time.Second, HandlerFunc(func(time.Duration) { count++ })) // fresh ticker restarts the cadence
	e.RunUntil(15 * time.Second)
	if count != 5 {
		t.Fatalf("restarted ticker count = %d, want 5", count)
	}
}

// A ticker fast enough to earn a lane and a far-future one that never
// leaves the heap interleave on time.
func TestTickerLongIntervals(t *testing.T) {
	e := New(1)
	var times []time.Duration
	e.EveryHandler(700*time.Millisecond, HandlerFunc(func(time.Duration) { times = append(times, e.Now()) }))
	e.EveryHandler(90*time.Second, HandlerFunc(func(time.Duration) { times = append(times, e.Now()) }))
	e.RunUntil(91 * time.Second)
	if !hasLane(e, 700*time.Millisecond) || hasLane(e, 90*time.Second) {
		t.Fatalf("lanes = %v, want 700ms on a lane and 90s on the heap", e.laneDelay[:e.nLanes])
	}
	// Verify the 700ms cadence exactly, with the 90s tick interleaved.
	want := 700 * time.Millisecond
	next := want
	seen90 := false
	for _, at := range times {
		if at == 90*time.Second && !seen90 {
			seen90 = true
			continue
		}
		if at != next {
			t.Fatalf("tick at %v, want %v", at, next)
		}
		next += want
	}
	if !seen90 {
		t.Fatal("90s tick missing")
	}
	if next <= 90*time.Second {
		t.Fatalf("700ms ticker stopped early: next tick due at %v", next)
	}
}

// After a full drain, every pooled event must be back on the free list:
// zero leaks from firing, cancellation on the heap or inside a lane, or
// ticker stop.
func TestEngineDrainNoLeakedEvents(t *testing.T) {
	e := New(1)
	for i := 0; i < 500; i++ {
		// Ten recurring delays: eight earn lanes, two stay on the heap.
		tm := e.ScheduleHandler(time.Duration(i%10)*time.Millisecond, HandlerFunc(func(time.Duration) {}))
		if i%7 == 0 {
			tm.Stop()
		}
	}
	e.ScheduleHandler(70*time.Second, HandlerFunc(func(time.Duration) {}))
	var tk *Ticker
	tk = e.EveryHandler(33*time.Millisecond, HandlerFunc(func(time.Duration) {
		if e.Now() > 2*time.Second {
			tk.Stop()
		}
	}))
	tk2 := e.EveryHandler(time.Hour, HandlerFunc(func(time.Duration) {}))
	e.ScheduleHandler(80*time.Second, HandlerFunc(func(time.Duration) { tk2.Stop() }))
	if lane, heap := e.SchedulerInserts(); lane == 0 || heap == 0 {
		t.Fatalf("inserts: %d lane, %d heap; the drain must cover both", lane, heap)
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after drain, want 0", e.Pending())
	}
	if e.live != 0 {
		t.Fatalf("%d pooled events leaked after drain", e.live)
	}
}

// --- delay-class lanes ---

func hasLane(e *Engine, d time.Duration) bool {
	return slices.Contains(e.laneDelay[:e.nLanes], d)
}

// openLane files and drains just enough events with delay d to earn it a
// lane.
func openLane(t *testing.T, e *Engine, d time.Duration) {
	t.Helper()
	for i := 0; i < lanePromoteAt; i++ {
		e.ScheduleHandler(d, HandlerFunc(func(time.Duration) {}))
	}
	e.Run()
	if !hasLane(e, d) {
		t.Fatalf("delay %v has no lane after %d events", d, lanePromoteAt)
	}
}

// A cancelled timer resident in a lane is skipped and recycled when it
// reaches the lane head, not fired.
func TestLaneCancelledTimerRecycledNotFired(t *testing.T) {
	e := New(1)
	d := 5 * time.Millisecond
	openLane(t, e, d)
	before, _ := e.SchedulerInserts()
	fired := 0
	e.ScheduleHandler(d, HandlerFunc(func(time.Duration) { fired++ }))
	tm := e.ScheduleHandler(d, HandlerFunc(func(time.Duration) { t.Error("cancelled lane event fired") }))
	e.ScheduleHandler(d, HandlerFunc(func(time.Duration) { fired++ }))
	if after, _ := e.SchedulerInserts(); after-before != 3 {
		t.Fatalf("%d of 3 events filed on the lane", after-before)
	}
	if !tm.Stop() {
		t.Fatal("Stop() = false on a pending lane event")
	}
	if e.Pending() != 2 || e.Live() != 3 {
		t.Fatalf("Pending() = %d, Live() = %d; want 2 live of 3 resident", e.Pending(), e.Live())
	}
	e.Run()
	if fired != 2 || e.Live() != 0 {
		t.Fatalf("fired = %d, Live() = %d after drain; want 2, 0", fired, e.Live())
	}
}

// A delay promoted while older events of that delay still sit on the
// heap: the heap's and the lane's events are due at the same instant and
// must fire in scheduling order.
func TestLanePromotionMidRunKeepsKeyOrder(t *testing.T) {
	e := New(1)
	n := lanePromoteAt + 10
	var got []int
	for i := 0; i < n; i++ {
		e.ScheduleHandler(5*time.Millisecond, HandlerFunc(func(time.Duration) { got = append(got, i) }))
	}
	if lane, heap := e.SchedulerInserts(); heap != lanePromoteAt || lane != 10 {
		t.Fatalf("inserts: %d lane, %d heap; want the first %d on the heap and 10 on the new lane", lane, heap, lanePromoteAt)
	}
	e.Run()
	for i := range n {
		if got[i] != i {
			t.Fatalf("order across the promotion = %v", got)
		}
	}
}

// With every lane taken, a further hot delay stays on the heap and is
// still merged in (time, scheduling) order with the lanes.
func TestNinthHotDelayStaysOnHeap(t *testing.T) {
	e := New(1)
	var delays []time.Duration
	for i := 1; i <= maxLanes; i++ {
		delays = append(delays, time.Duration(i)*time.Millisecond)
		openLane(t, e, delays[i-1])
	}
	ninth := 2500 * time.Microsecond
	delays = append(delays, ninth)

	type filed struct {
		id int
		at time.Duration
	}
	var want, got []filed
	id := 0
	e.EveryHandler(500*time.Microsecond, HandlerFunc(func(time.Duration) {
		if id >= 50*len(delays) {
			return
		}
		for _, d := range delays { // nine events per tick, many due together
			ev := filed{id, e.Now() + d}
			id++
			want = append(want, ev)
			e.ScheduleHandler(d, HandlerFunc(func(time.Duration) { got = append(got, ev) }))
		}
	}))
	e.RunUntil(time.Second)
	if e.nLanes != maxLanes || hasLane(e, ninth) {
		t.Fatalf("lanes = %v, want the first %d delays only", e.laneDelay[:e.nLanes], maxLanes)
	}
	slices.SortStableFunc(want, func(a, b filed) int { return cmp.Compare(a.at, b.at) })
	if !slices.Equal(got, want) {
		t.Fatalf("dispatch order diverges from (time, scheduling order) with a heap-resident hot delay")
	}
}

// The lane's sorted-by-construction argument needs src to be constant.
// NewGroup may renumber an engine that already holds events; a push
// that would land before the lane's tail must take the heap instead.
func TestLaneRenumberedSrcFallsBackToHeap(t *testing.T) {
	e := New(1)
	e.src = 2
	d := 5 * time.Millisecond
	openLane(t, e, d)
	var got []string
	e.ScheduleHandler(d, HandlerFunc(func(time.Duration) { got = append(got, "src2") }))
	e.src = 0
	e.ScheduleHandler(d, HandlerFunc(func(time.Duration) { got = append(got, "src0") }))
	e.Run()
	if want := []string{"src0", "src2"}; !slices.Equal(got, want) {
		t.Fatalf("order = %v, want %v: equal (at, schedAt) orders by src before seq", got, want)
	}
}

func BenchmarkSchedulerThroughput(b *testing.B) {
	e := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.ScheduleHandler(time.Duration(i)*time.Nanosecond, HandlerFunc(func(time.Duration) {}))
	}
	e.Run()
}

// TestHandlerFuncAllocFree: a HandlerFunc is pointer-shaped, so converting
// one to Handler stores it in the interface word without allocating — a
// closure scheduled, stamped or ticked through the handler verbs costs
// what any handler costs, a pooled event.
func TestHandlerFuncAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	e := New(1)
	fired := 0
	fn := HandlerFunc(func(time.Duration) { fired++ })
	step := func() {
		e.ScheduleHandler(time.Millisecond, fn)
		e.AtHandler(e.Now()+3*time.Millisecond, fn)
		e.Step()
		e.Step()
	}
	for i := 0; i < 4*eventBlock; i++ { // fill the pool, promote both delays to lanes
		step()
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Errorf("ScheduleHandler+AtHandler+dispatch of a HandlerFunc allocates %.2f objects per round, want 0", allocs)
	}
	tk := e.EveryHandler(time.Millisecond, fn)
	e.RunUntil(e.Now() + 4*eventBlock*time.Millisecond)
	before := fired
	if allocs := testing.AllocsPerRun(1000, func() { e.RunUntil(e.Now() + time.Millisecond) }); allocs != 0 {
		t.Errorf("a HandlerFunc ticker allocates %.2f objects per tick, want 0", allocs)
	}
	tk.Stop()
	if fired == before {
		t.Fatal("the ticker never fired under measurement")
	}
}

// TestLaneArraysOnOneLineEach pins the layout the lane scans in add and
// peek rely on: the fields before laneDelay fill one 64-byte line, so
// each 64-byte lane array starts on a line of its own. A field added
// above them shifts all three across two lines.
func TestLaneArraysOnOneLineEach(t *testing.T) {
	var e Engine
	if off := unsafe.Offsetof(e.laneDelay); off != 64 || unsafe.Sizeof(e.laneDelay) != 64 {
		t.Fatalf("laneDelay at offset %d, %d bytes; want 64 and 64", off, unsafe.Sizeof(e.laneDelay))
	}
}

// TestEventOneLine pins the pooled event to one 64-byte line: the
// ordering key (at, schedAt, seq, src), the generation and cancel flag,
// one Handler and the free-list link. A second handler kind or a payload
// slot moves it to the 96-byte class, and every event block pays for it.
func TestEventOneLine(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 64 {
		t.Errorf("event is %d bytes, want 64", got)
	}
}

// TestRandBuiltOnFirstDraw: an engine that never calls Rand builds no
// source, and the stream it hands out is the seed's stream whether the
// first draw comes at t=0 or after a thousand events.
func TestRandBuiltOnFirstDraw(t *testing.T) {
	draws := func(e *Engine) []int64 {
		out := make([]int64, 8)
		for i := range out {
			out[i] = e.Rand().Int63()
		}
		return out
	}
	early := draws(New(7))
	ref := rand.New(rand.NewSource(7))
	for i, v := range early {
		if want := ref.Int63(); v != want {
			t.Fatalf("draw %d = %d, want %d (rand.NewSource(seed)'s stream)", i, v, want)
		}
	}

	late := New(7)
	for i := range 1000 {
		late.ScheduleHandler(time.Duration(i)*time.Millisecond, HandlerFunc(func(time.Duration) {}))
	}
	late.Run()
	if late.Processed() != 1000 || late.rng != nil {
		t.Fatalf("after %d events rng = %p; want 1000 events and no source built", late.Processed(), late.rng)
	}
	if got := draws(late); !slices.Equal(got, early) {
		t.Fatalf("draws after 1000 events %v, want %v (the t=0 stream)", got, early)
	}
}

// TestReleasedEngineIsNew: an engine back from Release is one New never
// handed out. Its first life ends with events pending in a lane and on the
// heap, a ticker armed, a delay counted part-way to a lane and its source
// drawn from. After Release and New, every counter reads zero; the same
// program files the same lane and heap inserts, fires the same events at
// the same times and draws the same numbers as on a new engine; and a
// Timer from the first life, whose struct the program reuses, stops
// nothing.
func TestReleasedEngineIsNew(t *testing.T) {
	type run struct {
		log        []fired
		lane, heap uint64
		hw         int
		draws      []int64
	}
	// file files 200 events — 20 at a delay counted to 20 of the 32 misses
	// that earn a lane, 60 at one that earns it, 120 one-offs — and a
	// ticker, and draws three numbers.
	file := func(e *Engine, r *run) {
		for i := range 200 {
			d := time.Duration(1+i)*37*time.Microsecond + time.Second
			switch {
			case i < 20:
				d = 7 * time.Millisecond
			case i < 80:
				d = 5 * time.Millisecond
			}
			e.ScheduleHandler(d, HandlerFunc(func(now time.Duration) { r.log = append(r.log, fired{i, now}) }))
		}
		e.EveryHandler(10*time.Millisecond, HandlerFunc(func(now time.Duration) { r.log = append(r.log, fired{-1, now}) }))
		for range 3 {
			r.draws = append(r.draws, e.Rand().Int63())
		}
	}
	finish := func(e *Engine, r *run) {
		e.RunUntil(2 * time.Second)
		r.lane, r.heap = e.SchedulerInserts()
		r.hw = e.LiveHighWater()
	}

	first := New(1)
	file(first, &run{})
	first.RunUntil(4 * time.Millisecond) // before anything fires
	stale := first.ScheduleHandler(time.Hour, HandlerFunc(func(time.Duration) {}))
	first.Release()
	first.Release() // must not hand the engine out twice

	e := New(2)
	if e != first {
		t.Fatal("New did not hand back the released engine")
	}
	if New(2) == e {
		t.Fatal("a second Release handed the engine out twice")
	}
	lane, heap := e.SchedulerInserts()
	if e.Now() != 0 || e.Processed() != 0 || e.Live() != 0 || e.LiveHighWater() != 0 || lane != 0 || heap != 0 {
		t.Fatalf("released engine reads Now %v, Processed %d, Live %d, LiveHighWater %d, inserts %d/%d; want all zero",
			e.Now(), e.Processed(), e.Live(), e.LiveHighWater(), lane, heap)
	}
	var got, want run
	file(e, &got)
	if stale.ev.h == nil {
		t.Fatal("the program did not reuse the stale Timer's event struct")
	}
	if stale.Stop() {
		t.Error("a Timer from the engine's previous life stopped an event of this one")
	}
	finish(e, &got)
	fresh := &Engine{seed: 2}
	file(fresh, &want)
	finish(fresh, &want)
	if !slices.Equal(got.log, want.log) {
		t.Errorf("released engine fired %d events, a new one %d, or in another order", len(got.log), len(want.log))
	}
	if got.lane != want.lane || got.heap != want.heap || got.hw != want.hw {
		t.Errorf("released engine: %d lane / %d heap inserts, high water %d; a new one %d / %d, %d", got.lane, got.heap, got.hw, want.lane, want.heap, want.hw)
	}
	if !slices.Equal(got.draws, want.draws) {
		t.Errorf("released engine draws %v, New(2)'s stream is %v", got.draws, want.draws)
	}
}
