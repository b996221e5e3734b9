// Package sim provides a deterministic discrete-event simulation engine.
//
// All of vcalab runs on virtual time: a five-minute video call completes in
// milliseconds of wall-clock time and, given the same seed, produces exactly
// the same packet trace on every run. The engine is a priority queue of
// timestamped callbacks plus a seeded random source; nothing in the library
// reads the wall clock.
//
// # Architecture
//
// The scheduler is built for the packet-path hot loop (see DESIGN.md §7):
//
//   - Events are pooled. Every event struct comes from a per-engine free
//     list (allocated in blocks) and returns to it when it fires or its
//     cancellation is collected, so steady-state scheduling allocates
//     nothing. The engine is single-threaded, so the free list needs no
//     locking. An event is 64 bytes: its ordering key, a generation, one
//     Handler and the free-list link.
//   - Most events never touch a priority queue. Simulation traffic is
//     dominated by a handful of exact delay values (link propagation
//     delays, ticker periods), and because the clock is monotone, events
//     filed with one delay are already in dispatch order. Each of up to
//     eight such delay classes owns a FIFO lane: scheduling appends to the
//     lane's ring, O(1) and without comparing against any other event. A
//     delay earns its lane through a deterministic heavy-hitter count over
//     the events that missed.
//   - Everything else — size-dependent serialization times, jittered
//     propagation, cross-shard injections — goes to a 4-ary min-heap
//     ordered by the same key: shallower than a binary heap, with all
//     four children in one cache line's worth of pointers. Lazy
//     cancellation means events never need removal by position, so no
//     per-event index is maintained.
//   - The next event is the minimum of the heap top and the lane heads, so
//     which queue an event sat in can never change the order it fires in.
//   - There is one handler kind and one way to schedule it: an event
//     carries a Handler, filed by ScheduleHandler, AtHandler or
//     EveryHandler. Hot callers implement Handler and so schedule
//     closure-free; on the packet path (internal/netem) the in-flight
//     *Packet is itself the propagation event's Handler. A closure is
//     scheduled as a HandlerFunc, which is pointer-shaped and so converts
//     to Handler without allocating.
//   - Timer.Stop is a lazy cancellation: the event is marked dead and its
//     struct is recycled when it reaches the front of its queue. Timer
//     handles carry a generation counter so a stale handle can never
//     cancel an unrelated reuse of the same pooled struct.
//
// Determinism is unchanged from the original container/heap engine: events
// scheduled for the same instant fire in scheduling order, guaranteed by
// the monotonically increasing sequence number assigned at schedule time.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"vcalab/internal/obs"
)

// Handler receives an event. Hot-path callers implement it to schedule
// without allocating a closure; anything else passes a HandlerFunc.
type Handler interface {
	OnEvent(now time.Duration)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(now time.Duration)

// OnEvent calls f(now).
func (f HandlerFunc) OnEvent(now time.Duration) { f(now) }

// event is a pooled scheduler entry: the ordering key, a generation, the
// handler and the free-list link fill exactly one 64-byte line.
type event struct {
	at time.Duration
	// schedAt is the engine clock at the moment the event was filed. In a
	// single-engine run it refines nothing (see less); in a sharded run it
	// is the cross-shard half of the ordering key.
	schedAt time.Duration
	seq     uint64
	// src is the scheduling domain the event was filed from: 0 for the
	// control engine (and every standalone engine), 1..N for shard
	// engines. Constant within one engine; it only separates events after
	// a cross-shard injection.
	src uint32
	// gen guards Timer handles across pooling: it increments every time
	// the struct is recycled, so a stale Timer cannot cancel an
	// unrelated reuse.
	gen       uint32
	cancelled bool

	h Handler

	// next links free-list entries.
	next *event
}

// less is the engine's total order: (at, schedAt, src, seq).
//
// Within a single engine this is exactly the classic (at, seq) order: the
// clock is monotone across schedule calls, so seq is monotone in schedAt
// and comparing schedAt first can never disagree with comparing seq; src
// is constant. The extra fields exist for sharded runs, where events
// injected from another shard carry that shard's (schedAt, src, seq) and
// must interleave with local events exactly where a single sequential
// engine would have placed them (see shard.go).
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.schedAt != b.schedAt {
		return a.schedAt < b.schedAt
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

// Lane geometry. All four are fixed: which queue an event sits in is a
// pure function of the schedule sequence, never of a flag or the host.
const (
	// maxLanes bounds the lane-head scan in peek to one cache line of
	// times.
	maxLanes = 8
	// laneCandidates is the size of the Misra–Gries table counting delays
	// that missed every lane; a delay filed more often than 1 in
	// laneCandidates+1 misses cannot be starved out of it.
	laneCandidates = 16
	// lanePromoteAt is the count at which a candidate delay earns a lane.
	lanePromoteAt = 32
	laneRingInit  = 16
)

// fromHeap is peek's queue index for the heap; lanes are 0..maxLanes-1.
const fromHeap = -1

const farFuture = time.Duration(math.MaxInt64)

// lane is a FIFO of events that were all filed with the same delay. The
// engine clock is monotone, so each event's (at, schedAt) = (now+d, now) is
// at or after its predecessor's and seq breaks the tie: the ring is sorted
// by the engine's ordering key without ever comparing. add re-checks that
// against the tail (src can be renumbered by NewGroup) and falls back to
// the heap when it would not hold.
type lane struct {
	ring    []*event // power-of-two capacity
	head, n int
}

// at returns the k-th event from the head, 0 <= k < n.
func (l *lane) at(k int) *event { return l.ring[(l.head+k)&(len(l.ring)-1)] }

func (l *lane) push(ev *event) {
	if l.n == len(l.ring) {
		grown := make([]*event, max(2*len(l.ring), laneRingInit))
		k := copy(grown, l.ring[l.head:])
		copy(grown[k:], l.ring[:l.head])
		l.ring, l.head = grown, 0
	}
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = ev
	l.n++
}

func (l *lane) pop() {
	l.ring[l.head] = nil
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
}

// laneCandidate is one Misra–Gries counter; count == 0 marks a free slot.
type laneCandidate struct {
	delay time.Duration
	count uint32
}

// Engine is a discrete-event scheduler. The zero value is not usable; create
// one with New. Engine is not safe for concurrent use: the entire simulation
// runs single-threaded, which is what makes it deterministic.
type Engine struct {
	now time.Duration
	// tracer is the ring every component running on this engine records
	// into (SetTracer); nil when tracing is off.
	tracer *obs.Tracer
	heap   []*event
	seq    uint64
	rng    *rand.Rand

	// src is the engine's scheduling-domain index, stamped into every
	// event it files: 0 for a standalone or control engine, 1..N for the
	// shards of a Group.
	src uint32

	// Lanes 0..nLanes-1 are live. Their delays and a copy of each head
	// (event and time; nil and farFuture when the lane is empty) are kept
	// apart from the rings, so the scans in add and peek read one cache
	// line each and peek dereferences no event that cannot be the minimum.
	// The fields above fill exactly 64 bytes, which keeps each of the
	// three arrays below on one line.
	laneDelay  [maxLanes]time.Duration
	laneAt     [maxLanes]time.Duration
	laneHead   [maxLanes]*event
	lanes      [maxLanes]lane
	nLanes     int
	candidates [laneCandidates]laneCandidate

	free *event
	// live counts events handed out of the free list and not yet
	// recycled — the pooled-event leak detector used by tests.
	live int
	// liveHW is the high-water mark of live: the scheduler's peak
	// working set over the engine's lifetime.
	liveHW int
	// laneIns/heapIns count insertions appended to a lane vs pushed onto
	// the heap — the lane hit ratio is the scheduler's cheapest health
	// signal.
	laneIns, heapIns uint64
	// processed counts executed events, exposed for tests and benchmarks.
	processed uint64
	// seed seeds rng; below the lane arrays, so the fields above fit a line.
	seed int64
}

// eventBlock is how many pooled events are allocated at once when the
// free list runs dry.
const eventBlock = 128

// New returns an Engine whose random source is seeded with seed.
// Two engines created with the same seed run identically.
func New(seed int64) *Engine {
	return &Engine{seed: seed}
}

// Now returns the current virtual time, measured from the start of the
// simulation.
func (e *Engine) Now() time.Duration { return e.now }

// SetTracer makes t the tracer of everything that runs on this engine —
// links, clients, SFUs, a call's churn, a scenario timeline — and nil
// turns tracing off. One tracer per engine keeps every ring single-writer
// on a sharded run, and a component built mid-run is traced because it
// runs here, not because someone wired it.
func (e *Engine) SetTracer(t *obs.Tracer) { e.tracer = t }

// Tracer returns the engine's tracer, nil when tracing is off. Call its
// producers directly — `x.eng.Tracer().Packet(...)` — since a nil
// *obs.Tracer is the off switch: every producer inlines its nil check
// (internal/obs's TestProducersInline pins that) and takes only values
// already in hand, so a disabled run pays a field load and a branch.
func (e *Engine) Tracer() *obs.Tracer { return e.tracer }

// Rand returns the engine's random source, seeded with New's seed. It is
// built on the first call (~5 KB), so an engine that never draws pays nothing.
func (e *Engine) Rand() *rand.Rand {
	if e.rng == nil {
		e.rng = rand.New(rand.NewSource(e.seed))
	}
	return e.rng
}

// Processed reports how many events have executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Live reports how many pooled events are currently handed out and not yet
// recycled. After a full drain (Run returning with nothing pending) it must
// be zero; tests use it as the pooled-event leak detector.
func (e *Engine) Live() int { return e.live }

// LiveHighWater reports the peak number of pooled events concurrently
// outstanding over the engine's lifetime — the scheduler's working-set
// high-water mark.
func (e *Engine) LiveHighWater() int { return e.liveHW }

// SchedulerInserts reports how many event insertions were appended to a
// delay-class lane vs pushed onto the heap. A low lane share means the
// schedule has no recurring delays (or more than maxLanes of them) and
// the O(log n) path dominates.
func (e *Engine) SchedulerInserts() (lane, heap uint64) {
	return e.laneIns, e.heapIns
}

// alloc hands out a pooled event, growing the pool by a block when empty.
func (e *Engine) alloc() *event {
	if e.free == nil {
		blk := make([]event, eventBlock)
		for i := range blk {
			blk[i].next = e.free
			e.free = &blk[i]
		}
	}
	ev := e.free
	e.free = ev.next
	ev.next = nil
	e.live++
	if e.live > e.liveHW {
		e.liveHW = e.live
	}
	return ev
}

// recycle returns ev to the free list, invalidating outstanding Timer
// handles via the generation counter.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.h = nil
	ev.cancelled = false
	ev.next = e.free
	e.free = ev
	e.live--
}

// add stamps and files a fresh event. Times in the past are clamped to now.
func (e *Engine) add(at time.Duration, ev *event) Timer {
	if at < e.now {
		at = e.now
	}
	ev.at = at
	ev.schedAt = e.now
	ev.src = e.src
	ev.seq = e.seq
	e.seq++
	d := at - e.now
	for i, ld := range e.laneDelay[:e.nLanes] {
		if ld != d {
			continue
		}
		l := &e.lanes[i]
		if l.n == 0 {
			e.laneAt[i], e.laneHead[i] = at, ev
		} else if less(ev, l.at(l.n-1)) {
			break // would unsort the lane
		}
		l.push(ev)
		e.laneIns++
		return Timer{ev: ev, gen: ev.gen}
	}
	e.heapIns++
	e.heapPush(ev)
	if e.nLanes < maxLanes {
		e.countMiss(d)
	}
	return Timer{ev: ev, gen: ev.gen}
}

// countMiss records that an event with delay d missed every lane, and
// opens a lane for d once it has been counted lanePromoteAt times. The
// table is a Misra–Gries summary: a miss that finds it full of other
// delays decrements them all, so one-off delays (serialization times)
// wash out while recurring ones climb. Events of d already on the heap
// stay there; peek merges them with the new lane by key.
func (e *Engine) countMiss(d time.Duration) {
	free := -1
	for i := range e.candidates {
		c := &e.candidates[i]
		switch {
		case c.count == 0:
			free = i
		case c.delay == d:
			if c.count++; c.count == lanePromoteAt {
				c.count = 0
				e.laneDelay[e.nLanes] = d
				e.laneAt[e.nLanes] = farFuture
				e.nLanes++
			}
			return
		}
	}
	if free >= 0 {
		e.candidates[free] = laneCandidate{delay: d, count: 1}
		return
	}
	for i := range e.candidates {
		e.candidates[i].count--
	}
}

// TakeSeq consumes and returns the engine's next scheduling sequence
// number without filing an event. Cross-shard handoff (Mailbox.Post)
// burns one source-engine seq per boundary packet, so entries posted from
// the same instant keep the source's scheduling order after injection.
func (e *Engine) TakeSeq() uint64 {
	s := e.seq
	e.seq++
	return s
}

// inject files an event carrying a foreign ordering key — the mailbox
// drain path. The caller (a Group barrier) guarantees at >= e.now. A
// foreign schedAt says nothing about lane order, so it goes to the heap.
func (e *Engine) inject(at, schedAt time.Duration, src uint32, seq uint64, h Handler) {
	ev := e.alloc()
	ev.h = h
	ev.at = at
	ev.schedAt = schedAt
	ev.src = src
	ev.seq = seq
	e.heapIns++
	e.heapPush(ev)
}

// Timer is a handle to a scheduled event. Stop cancels it. The zero Timer
// is valid and inert. Timers are values: copying one copies the handle.
type Timer struct {
	ev  *event
	gen uint32
}

// Stop cancels the timer. It is safe to call on a timer that already fired
// or was already stopped; Stop reports whether the call prevented the event
// from firing. Cancellation is lazy: the pooled event is reclaimed when the
// scheduler next encounters it.
func (t *Timer) Stop() bool {
	if t.ev == nil || t.ev.gen != t.gen || t.ev.cancelled {
		return false
	}
	t.ev.cancelled = true
	return true
}

// ScheduleHandler runs h.OnEvent after delay of virtual time without
// allocating: the event comes from the engine pool and carries the handler
// interface directly. A negative delay is treated as zero. Events
// scheduled for the same instant run in scheduling order.
func (e *Engine) ScheduleHandler(delay time.Duration, h Handler) Timer {
	return e.AtHandler(e.now+delay, h)
}

// AtHandler runs h.OnEvent at the absolute virtual time t. Times in the
// past are clamped to now.
func (e *Engine) AtHandler(t time.Duration, h Handler) Timer {
	ev := e.alloc()
	ev.h = h
	return e.add(t, ev)
}

// Ticker repeatedly invokes a callback at a fixed interval until stopped.
// The ticker re-arms itself through one pooled event per fire: no per-tick
// allocation.
type Ticker struct {
	eng      *Engine
	interval time.Duration
	h        Handler
	timer    Timer
	stopped  bool
}

// EveryHandler runs h.OnEvent every interval, first firing one interval
// from now. It panics if interval is not positive, since a zero-interval
// ticker would prevent virtual time from ever advancing.
func (e *Engine) EveryHandler(interval time.Duration, h Handler) *Ticker {
	t := &Ticker{eng: e, interval: checkInterval(interval), h: h}
	t.arm()
	return t
}

func checkInterval(interval time.Duration) time.Duration {
	if interval <= 0 {
		panic(fmt.Sprintf("sim: non-positive ticker interval %v", interval))
	}
	return interval
}

// OnEvent fires one tick and re-arms. It implements Handler so the ticker's
// own pooled event dispatches straight to it; do not call it directly.
func (t *Ticker) OnEvent(now time.Duration) {
	if t.stopped {
		return
	}
	t.h.OnEvent(now)
	if !t.stopped {
		t.arm()
	}
}

func (t *Ticker) arm() {
	t.timer = t.eng.ScheduleHandler(t.interval, t)
}

// Stop prevents any future ticks. The ticker cannot be restarted.
func (t *Ticker) Stop() {
	t.stopped = true
	t.timer.Stop()
}

// peek returns the earliest live event and the queue holding it (a lane
// index, or fromHeap), collecting cancelled events along the way.
func (e *Engine) peek() (*event, int) {
	for {
		var best *event
		q, minAt := fromHeap, farFuture
		if len(e.heap) > 0 {
			best = e.heap[0]
			minAt = best.at
		}
		for i, at := range e.laneAt[:e.nLanes] {
			if at > minAt {
				continue
			}
			head := e.laneHead[i]
			if head == nil {
				continue
			}
			if at < minAt || best == nil || less(head, best) {
				best, q, minAt = head, i, at
			}
		}
		if best == nil || !best.cancelled {
			return best, q
		}
		e.remove(q)
		e.recycle(best)
	}
}

// remove pops the front of queue q — the event peek just returned.
func (e *Engine) remove(q int) {
	if q == fromHeap {
		e.heapPop()
		return
	}
	l := &e.lanes[q]
	l.pop()
	if l.n == 0 {
		e.laneAt[q], e.laneHead[q] = farFuture, nil
	} else {
		head := l.at(0)
		e.laneAt[q], e.laneHead[q] = head.at, head
	}
}

// dispatch executes ev, which peek just returned at the front of queue q.
func (e *Engine) dispatch(ev *event, q int) {
	e.remove(q)
	e.now = ev.at
	e.processed++
	h := ev.h
	// Recycle before dispatch: the callback's own schedules reuse the
	// still-hot struct, and its Timer handles are already invalidated.
	e.recycle(ev)
	h.OnEvent(e.now)
}

// Step executes the single earliest pending event and reports whether one
// existed.
func (e *Engine) Step() bool {
	ev, q := e.peek()
	if ev == nil {
		return false
	}
	e.dispatch(ev, q)
	return true
}

// Run executes events until none remain.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// exactly t. Events scheduled beyond t remain pending.
func (e *Engine) RunUntil(t time.Duration) {
	for {
		ev, q := e.peek()
		if ev == nil || ev.at > t {
			break
		}
		e.dispatch(ev, q)
	}
	if e.now < t {
		e.now = t
	}
}

// RunBefore executes every pending event whose ordering key strictly
// precedes (atLimit, schedLimit): at < atLimit, or at == atLimit with
// schedAt < schedLimit. It is the shard-window primitive: a Group parks a
// shard here so a control-engine event at exactly (atLimit, schedLimit)
// runs after everything that would have preceded it on a single engine.
// Pass schedLimit = math.MinInt64 for a plain exclusive-end window
// (at < atLimit only) and math.MaxInt64 to include everything at atLimit.
// The clock is left at the last executed event; it does not advance to
// atLimit.
func (e *Engine) RunBefore(atLimit, schedLimit time.Duration) {
	for {
		ev, q := e.peek()
		if ev == nil || ev.at > atLimit || (ev.at == atLimit && ev.schedAt >= schedLimit) {
			return
		}
		e.dispatch(ev, q)
	}
}

// NextKey reports the ordering key of the earliest pending event, or
// ok == false when the engine is drained.
func (e *Engine) NextKey() (at, schedAt time.Duration, ok bool) {
	ev, _ := e.peek()
	if ev == nil {
		return 0, 0, false
	}
	return ev.at, ev.schedAt, true
}

// advanceTo moves the clock forward to t without executing anything —
// the Group uses it so events a barrier-time callback schedules onto a
// parked shard are stamped from the barrier instant, exactly as a single
// engine would have stamped them.
func (e *Engine) advanceTo(t time.Duration) {
	if t > e.now {
		e.now = t
	}
}

// Pending reports the number of live (non-cancelled) events still queued.
func (e *Engine) Pending() int {
	n := 0
	for _, ev := range e.heap {
		if !ev.cancelled {
			n++
		}
	}
	for i := range e.lanes[:e.nLanes] {
		l := &e.lanes[i]
		for k := range l.n {
			if !l.at(k).cancelled {
				n++
			}
		}
	}
	return n
}

// --- 4-ary heap ---

func (e *Engine) heapPush(ev *event) {
	e.heap = append(e.heap, ev)
	e.siftUp(len(e.heap) - 1)
}

func (e *Engine) heapPop() *event {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	e.heap = h[:n]
	if n > 0 {
		e.heap[0] = last
		e.siftDown(0)
	}
	return top
}

func (e *Engine) siftUp(i int) {
	h := e.heap
	ev := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !less(ev, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
}

func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	ev := h[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if less(h[j], h[m]) {
				m = j
			}
		}
		if !less(h[m], ev) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = ev
}
