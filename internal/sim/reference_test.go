package sim

import (
	"math"
	"time"
)

// refEngine is the obviously-correct scheduler the production engine is
// checked against: an unsorted slice of closures, scanned in full for the
// minimum (at, schedAt, src, seq) key on every step. No pooling, no lanes,
// no heap — nothing that could get the order wrong for the same reason the
// production engine might.
type refEngine struct {
	clock time.Duration
	seq   uint64
	src   uint32
	q     []*refEvent
}

type refEvent struct {
	at, schedAt time.Duration
	src         uint32
	seq         uint64
	fn          func()
	done        bool // fired or stopped
}

func (a *refEvent) before(b *refEvent) bool {
	switch {
	case a.at != b.at:
		return a.at < b.at
	case a.schedAt != b.schedAt:
		return a.schedAt < b.schedAt
	case a.src != b.src:
		return a.src < b.src
	}
	return a.seq < b.seq
}

func (r *refEngine) now() time.Duration { return r.clock }

func (r *refEngine) at(t time.Duration, fn func()) func() bool {
	ev := &refEvent{at: max(t, r.clock), schedAt: r.clock, src: r.src, seq: r.seq, fn: fn}
	r.seq++
	r.q = append(r.q, ev)
	return func() bool {
		stopped := !ev.done
		ev.done = true
		return stopped
	}
}

func (r *refEngine) inject(at, schedAt time.Duration, src uint32, seq uint64, fn func()) {
	r.q = append(r.q, &refEvent{at: at, schedAt: schedAt, src: src, seq: seq, fn: fn})
}

// runBefore fires, in key order, every live event whose key precedes
// (atLimit, schedLimit); the clock stays at the last one fired.
func (r *refEngine) runBefore(atLimit, schedLimit time.Duration) {
	limit := &refEvent{at: atLimit, schedAt: schedLimit}
	for {
		best := -1
		for i, ev := range r.q {
			if !ev.done && (best < 0 || ev.before(r.q[best])) {
				best = i
			}
		}
		if best < 0 || !r.q[best].before(limit) {
			return
		}
		ev := r.q[best]
		r.q = append(r.q[:best], r.q[best+1:]...)
		r.clock, ev.done = ev.at, true
		ev.fn()
	}
}

func (r *refEngine) runUntil(t time.Duration) {
	r.runBefore(t, math.MaxInt64)
	r.advanceTo(t)
}

func (r *refEngine) run()                      { r.runBefore(math.MaxInt64, math.MaxInt64) }
func (r *refEngine) advanceTo(t time.Duration) { r.clock = max(r.clock, t) }
func (r *refEngine) setSrc(src uint32)         { r.src = src }

// outstanding counts events neither fired nor stopped.
func (r *refEngine) outstanding() int {
	n := 0
	for _, ev := range r.q {
		if !ev.done {
			n++
		}
	}
	return n
}

// refTicker restates the Ticker contract on top of refEngine.at: first
// fire one interval out, and Stop is final.
type refTicker struct {
	r        *refEngine
	interval time.Duration
	fn       func()
	stop     func() bool
	stopped  bool
}

func (r *refEngine) every(interval time.Duration, fn func()) tickerControl {
	t := &refTicker{r: r, interval: interval, fn: fn}
	t.arm()
	return t
}

func (t *refTicker) arm() { t.stop = t.r.at(t.r.clock+t.interval, t.fire) }

func (t *refTicker) fire() {
	t.fn()
	if !t.stopped {
		t.arm()
	}
}

func (t *refTicker) Stop() {
	t.stopped = true
	t.stop()
}
