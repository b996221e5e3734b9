package sim

import (
	"math/rand"
	"testing"
	"time"
)

// scheduler is what a generated schedule drives: the production engine
// (prodScheduler) and the reference (refEngine) both satisfy it.
type scheduler interface {
	now() time.Duration
	at(t time.Duration, fn func()) (stop func() bool)
	every(interval time.Duration, fn func()) tickerControl
	inject(at, schedAt time.Duration, src uint32, seq uint64, fn func())
	runBefore(atLimit, schedLimit time.Duration)
	runUntil(t time.Duration)
	run()
	advanceTo(t time.Duration)
	setSrc(src uint32)
}

type tickerControl interface {
	Stop()
}

type prodScheduler struct{ e *Engine }

func (p prodScheduler) now() time.Duration { return p.e.Now() }
func (p prodScheduler) at(t time.Duration, fn func()) func() bool {
	tm := p.e.AtHandler(t, handler(fn))
	return tm.Stop
}
func (p prodScheduler) every(d time.Duration, fn func()) tickerControl {
	return p.e.EveryHandler(d, handler(fn))
}
func (p prodScheduler) inject(at, schedAt time.Duration, src uint32, seq uint64, fn func()) {
	p.e.inject(at, schedAt, src, seq, handler(fn))
}
func (p prodScheduler) runBefore(at, sched time.Duration) { p.e.RunBefore(at, sched) }
func (p prodScheduler) runUntil(t time.Duration)          { p.e.RunUntil(t) }
func (p prodScheduler) run()                              { p.e.Run() }
func (p prodScheduler) advanceTo(t time.Duration)         { p.e.advanceTo(t) }
func (p prodScheduler) setSrc(src uint32)                 { p.e.src = src }

// handler adapts the harness's func() callbacks, which the reference
// scheduler shares, to the engine's Handler.
func handler(fn func()) HandlerFunc { return func(time.Duration) { fn() } }

// palette holds the recurring delays of a generated schedule — more of
// them than there are lanes, so some hot delay always stays on the heap.
var palette = [...]time.Duration{
	0, 100 * time.Microsecond, 2 * time.Millisecond, 5 * time.Millisecond,
	15 * time.Millisecond, 20 * time.Millisecond, 33 * time.Millisecond,
	50 * time.Millisecond, 100 * time.Millisecond, 700 * time.Millisecond,
	time.Second, 90 * time.Second,
}

// fired is one entry of a schedule's dispatch log. Timer.Stop results
// are logged too (id -2 if the call cancelled the event, -1 if not), so
// a handle that cancels the wrong event, or reports the wrong answer,
// shows up as a divergence.
type fired struct {
	id int
	at time.Duration
}

// schedule interprets a byte string as a program of scheduler calls.
// Top-level bytes file events, open tickers, run the clock forward and
// renumber the engine; every callback that fires reads further bytes to
// decide what to file or stop from inside the dispatch. Once the
// bytes run out callbacks do nothing, so every schedule drains.
type schedule struct {
	s       scheduler
	data    []byte
	pos     int
	log     []fired
	nextID  int
	timers  []func() bool
	tickers []tickerControl
	injSeq  uint64
}

func (p *schedule) byte() int {
	if p.pos >= len(p.data) {
		return 0
	}
	p.pos++
	return int(p.data[p.pos-1])
}

// delay draws a recurring delay four times in five, else a one-off.
func (p *schedule) delay() time.Duration {
	if b := p.byte(); b < 205 {
		return palette[b%len(palette)]
	}
	return time.Duration(p.byte())*37*time.Microsecond + time.Duration(p.byte())
}

func (p *schedule) event() func() {
	id := p.nextID
	p.nextID++
	return func() {
		p.log = append(p.log, fired{id, p.s.now()})
		for n := p.byte() % 3; n > 0; n-- {
			p.act()
		}
	}
}

// act performs one scheduler call.
func (p *schedule) act() {
	now := p.s.now()
	switch p.byte() % 16 {
	default: // 0..7, 11, 12: the common case, a plain timer
		p.timers = append(p.timers, p.s.at(now+p.delay(), p.event()))
	case 8: // absolute time in the past: clamps to now
		p.timers = append(p.timers, p.s.at(now-p.delay()-1, p.event()))
	case 9: // Stop, before or after the fire
		if len(p.timers) > 0 {
			id := -1
			if p.timers[p.byte()%len(p.timers)]() {
				id = -2
			}
			p.log = append(p.log, fired{id, now})
		}
	case 10:
		if len(p.tickers) < 12 {
			p.ticker()
		}
	case 13:
		if len(p.tickers) > 0 {
			p.tickers[p.byte()%len(p.tickers)].Stop()
		}
	case 14, 15: // a cross-shard delivery carrying a foreign key
		p.injSeq++
		schedAt := max(0, now-time.Duration(p.byte())*time.Millisecond)
		seq := uint64(p.byte())<<32 | p.injSeq
		p.s.inject(now+p.delay(), schedAt, uint32(5+p.byte()%3), seq, p.event())
	}
}

// ticker opens a ticker that stops itself after a bounded number of
// fires, so the schedule drains whatever else happens to it.
func (p *schedule) ticker() {
	id := p.nextID
	p.nextID++
	left := 5 + p.byte()%40
	var tk tickerControl
	tk = p.s.every(max(p.delay(), time.Millisecond), func() {
		p.log = append(p.log, fired{id, p.s.now()})
		if left--; left == 0 {
			tk.Stop()
		}
		for n := p.byte() % 2; n > 0; n-- {
			p.act()
		}
	})
	p.tickers = append(p.tickers, tk)
}

// play runs the whole program on s and returns the dispatch log.
func play(s scheduler, data []byte) []fired {
	p := &schedule{s: s, data: data}
	for p.pos < len(p.data) {
		switch p.byte() % 8 {
		default:
			p.act()
		case 4, 5:
			s.runUntil(s.now() + p.delay())
		case 6:
			// A Group barrier: run up to a control event's key, then
			// move the parked clock to it.
			t := s.now() + p.delay()
			s.runBefore(t, s.now())
			s.advanceTo(t)
		case 7:
			// NewGroup renumbers an engine that may already hold events.
			s.setSrc(uint32(p.byte() % 3))
		}
	}
	s.run()
	return p.log
}

// checkOrder plays data on the production engine e and on the reference
// and fails on the first difference between their dispatch logs.
func checkOrder(t *testing.T, e *Engine, data []byte) {
	t.Helper()
	got := play(prodScheduler{e}, data)
	ref := &refEngine{}
	want := play(ref, data)
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("dispatch %d of %d: engine fired %v, reference fired %v", i, len(want), got[i:min(i+1, len(got))], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("engine fired %d events, reference %d", len(got), len(want))
	}
	if e.Live() != 0 || e.Pending() != 0 || ref.outstanding() != 0 {
		t.Fatalf("after drain: Live() = %d, Pending() = %d, reference outstanding = %d, want 0",
			e.Live(), e.Pending(), ref.outstanding())
	}
}

// TestEngineMatchesReference drives both schedulers with generated
// programs long enough to open every lane, and checks the inputs really
// did put events on both the lanes and the heap. Every other program runs
// on the engine the one before it released, with its lanes open, a ticker
// armed and events pending on the heap and in lanes.
func TestEngineMatchesReference(t *testing.T) {
	var lane, heap uint64
	fullLanes := 0
	var released *Engine
	for seed := int64(1); seed <= 40; seed++ {
		data := make([]byte, 6000)
		rand.New(rand.NewSource(seed)).Read(data)
		e := New(1)
		if released != nil && e != released {
			t.Fatal("New did not hand back the engine the last program released")
		}
		checkOrder(t, e, data)
		l, h := e.SchedulerInserts()
		lane, heap = lane+l, heap+h
		if e.nLanes == maxLanes {
			fullLanes++
		}
		released = nil
		if seed%2 == 1 {
			e.EveryHandler(time.Millisecond, HandlerFunc(func(time.Duration) {}))
			for i := range 64 {
				e.ScheduleHandler(palette[i%len(palette)]+time.Duration(i%3), HandlerFunc(func(time.Duration) {}))
			}
			e.RunUntil(e.Now() + 3*time.Millisecond)
			e.Release()
			released = e
		}
	}
	if lane == 0 || heap == 0 || fullLanes == 0 {
		t.Fatalf("generated schedules filed %d lane and %d heap events and filled every lane %d times; want all > 0", lane, heap, fullLanes)
	}
}

// FuzzEngineOrder is the same check over arbitrary programs. The seed
// corpus under testdata/fuzz runs as a unit test on every `go test`.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkOrder(t, New(1), data)
	})
}
