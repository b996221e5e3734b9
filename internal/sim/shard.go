// Conservative region-sharded parallel execution (PDES).
//
// A Group partitions one simulation across N shard engines plus a control
// engine, each single-threaded and deterministic on its own, and advances
// them in bounded time windows. The window length is the conservative
// lookahead L: the minimum positive propagation delay of every boundary
// (cross-shard) link. A packet sent during the window [W, W+L) arrives at
// send+delay >= W+L, i.e. never inside the window it was sent in, so the
// shards can run a whole window in parallel with no null messages — a
// barrier at each window end is enough (Chandy–Misra–Bryant with the
// lookahead as the sole synchronization quantum).
//
// Determinism. Every event carries the ordering key (at, schedAt, src,
// seq); see sim.go's less. Within one engine the key degenerates to the
// classic (at, seq) order, since schedAt and seq rise together and src is
// constant. Across shards, a boundary packet is injected
// into its destination with the key it would have carried on a single
// sequential engine: at = the arrival instant, schedAt = the source-shard
// clock at the send, seq = a sequence number consumed from the source
// engine at the send. Because seq is monotone in schedAt on every engine,
// ordering by (at, schedAt, seq) reproduces the single-engine (at, seq)
// order for every pair of events whose schedAt differ; the src index is a
// stable tiebreak for the only genuinely ambiguous case — two events
// filed at the same instant by different shards and due at the same
// instant — where a single engine's interleaving is itself an accident of
// scheduling order. Control-engine events (src 0) win such ties, matching
// the sequential convention that harness setup (timelines, warmup
// snapshots) schedules before the call's own traffic.
//
// Barrier-time callbacks. The control engine holds every global event:
// scenario timelines, warmup snapshots, metrics samplers — anything that
// reads or mutates state across shard boundaries. Before a control event
// at key (gAt, gSchedAt) executes, every shard runs to exactly that key
// (RunBefore) and parks; the callback then runs on the barrier goroutine
// with exclusive access to the whole simulation, and every shard clock is
// advanced to gAt first so anything the callback schedules is stamped as
// a single engine would have stamped it.
//
// Mailboxes. Each boundary link owns a single-producer mailbox: the
// source shard appends during its window, the barrier drains everything
// into the destination engine while all shards are parked (the channel
// synchronization gives the happens-before edge, so no atomics are
// needed). Draining runs the mailbox's transfer hook, which re-homes
// pooled packet ownership from source-side to destination-side free lists
// — the only moment both sides are quiescent.
package sim

import (
	"math"
	"time"
)

// mailEntry is one posted cross-shard delivery.
type mailEntry struct {
	at, schedAt time.Duration
	seq         uint64
	h           Handler
}

// Mailbox is a single-producer, barrier-drained channel for cross-shard
// event handoff. The source shard Posts during its window; the Group
// drains every mailbox at every barrier, injecting each entry into the
// destination engine with its source-side ordering key.
type Mailbox struct {
	src *Engine
	dst *Engine
	// transfer re-homes the posted handler's resource ownership to the
	// destination side and returns what the destination dispatches. It
	// runs on the barrier goroutine with both shards parked; nil passes
	// the handler through untouched.
	transfer func(Handler) Handler

	entries []mailEntry
}

// NewMailbox creates a mailbox delivering src-shard posts on the dst
// engine. transfer (optional) re-homes each posted handler at drain time.
func NewMailbox(src, dst *Engine, transfer func(Handler) Handler) *Mailbox {
	return &Mailbox{src: src, dst: dst, transfer: transfer}
}

// Post files h to run on the destination engine at `at`, carrying the
// source shard's scheduling key (schedAt, seq). Call only from the source
// shard.
func (m *Mailbox) Post(at, schedAt time.Duration, seq uint64, h Handler) {
	m.entries = append(m.entries, mailEntry{at: at, schedAt: schedAt, seq: seq, h: h})
}

// drain injects every posted entry into the destination engine. Runs on
// the barrier goroutine with all shards parked.
func (m *Mailbox) drain() {
	for i := range m.entries {
		en := &m.entries[i]
		h := en.h
		if m.transfer != nil {
			h = m.transfer(h)
		}
		m.dst.inject(en.at, en.schedAt, m.src.src, en.seq, h)
		en.h = nil
	}
	m.entries = m.entries[:0]
}

// shardWorker is one shard's resident goroutine: it parks on cmd,
// executes one RunBefore per command and reports back on done.
type shardWorker struct {
	eng  *Engine
	cmd  chan [2]time.Duration
	done chan<- struct{}
}

func (w *shardWorker) loop() {
	for lim := range w.cmd {
		w.eng.RunBefore(lim[0], lim[1])
		w.done <- struct{}{}
	}
}

// Group runs one simulation partitioned across shard engines under a
// control engine, with conservative-window synchronization. Create with
// NewGroup, Register every boundary mailbox, then drive with RunUntil /
// Run and release the shard goroutines with Close. All methods must be
// called from one goroutine (the barrier goroutine); the shard engines
// must not be touched while a RunUntil/Run is in flight.
type Group struct {
	ctrl   *Engine
	shards []*Engine
	boxes  []*Mailbox
	// lookahead returns the current conservative window length: the
	// minimum positive boundary delay. Re-evaluated every window, so a
	// timeline reshaping a boundary link mid-run is picked up at the next
	// barrier. It must stay positive; the Group panics otherwise.
	lookahead func() time.Duration

	workers []*shardWorker
	doneCh  chan struct{}
	now     time.Duration // window clock: everything with at < now has run
	closed  bool
}

// NewGroup assembles a shard group. ctrl holds every global (cross-shard)
// event and is assigned domain 0; shards are assigned domains 1..N in
// order. lookahead supplies the conservative window length and is
// re-evaluated at every window boundary. The shard goroutines start
// immediately; call Close when done with the group.
func NewGroup(ctrl *Engine, shards []*Engine, lookahead func() time.Duration) *Group {
	g := &Group{ctrl: ctrl, shards: shards, lookahead: lookahead}
	g.ctrl.src = 0
	g.doneCh = make(chan struct{}, len(shards))
	for i, s := range shards {
		s.src = uint32(i + 1)
		w := &shardWorker{eng: s, cmd: make(chan [2]time.Duration), done: g.doneCh}
		g.workers = append(g.workers, w)
		go w.loop()
	}
	return g
}

// Register adds a boundary mailbox to the barrier drain set.
func (g *Group) Register(m *Mailbox) { g.boxes = append(g.boxes, m) }

// Close releases the shard goroutines. The group is unusable afterwards.
func (g *Group) Close() {
	if g.closed {
		return
	}
	g.closed = true
	for _, w := range g.workers {
		close(w.cmd)
	}
}

// runSegment runs every shard to the key (atLimit, schedLimit) in
// parallel, waits for all of them, then drains every mailbox — once per
// conservative window. Shards with nothing due before the limit are not
// woken.
func (g *Group) runSegment(atLimit, schedLimit time.Duration) {
	dispatched := 0
	for _, w := range g.workers {
		at, schedAt, ok := w.eng.NextKey()
		if !ok || at > atLimit || (at == atLimit && schedAt >= schedLimit) {
			continue
		}
		w.cmd <- [2]time.Duration{atLimit, schedLimit}
		dispatched++
	}
	for i := 0; i < dispatched; i++ {
		<-g.doneCh
	}
	for _, m := range g.boxes {
		m.drain()
	}
}

// advanceShards moves every shard clock (and the control clock) forward
// to t, so a barrier-time callback schedules from the barrier instant.
func (g *Group) advanceShards(t time.Duration) {
	for _, s := range g.shards {
		s.advanceTo(t)
	}
	g.ctrl.advanceTo(t)
}

// window executes one conservative window [g.now, wEnd): control events
// strictly inside the window run at their exact key, with every shard
// advanced to precede them; the remainder of the window then runs in
// parallel. Mailbox entries posted during the window are all due at or
// after wEnd (the lookahead guarantee), so draining at each barrier can
// never deliver into the window's own past.
func (g *Group) window(wEnd time.Duration) {
	for {
		gAt, gSchedAt, ok := g.ctrl.NextKey()
		if !ok || gAt >= wEnd {
			break
		}
		g.runSegment(gAt, gSchedAt)
		g.advanceShards(gAt)
		g.ctrl.Step()
	}
	g.runSegment(wEnd, math.MinInt64)
}

// earliest reports the earliest pending event time across the control
// engine and every shard (mailboxes are always drained at this point).
func (g *Group) earliest() (time.Duration, bool) {
	best, ok := time.Duration(math.MaxInt64), false
	if at, _, k := g.ctrl.NextKey(); k {
		best, ok = at, true
	}
	for _, s := range g.shards {
		if at, _, k := s.NextKey(); k && at < best {
			best, ok = at, true
		}
	}
	return best, ok
}

func (g *Group) checkLookahead() time.Duration {
	l := g.lookahead()
	if l <= 0 {
		panic("sim: shard group lookahead must stay positive (a boundary link's delay floor was reshaped to zero)")
	}
	return l
}

// RunUntil executes every event with at <= t across all shards and the
// control engine, then advances every clock to exactly t — the sharded
// equivalent of Engine.RunUntil, byte-identical in effect.
func (g *Group) RunUntil(t time.Duration) {
	for {
		l := g.checkLookahead()
		next, ok := g.earliest()
		if !ok || next > t {
			break
		}
		if next > g.now {
			// Dead time: no event anywhere before next, so the next
			// window can start there without missing anything.
			g.now = next
		}
		wEnd := g.now + l
		if wEnd > t {
			break
		}
		g.window(wEnd)
		g.now = wEnd
	}
	// Closing pass: everything left with at <= t. Any send here happens
	// at tau >= g.now, so it arrives at tau+L > t — beyond the horizon,
	// exactly the events a sequential RunUntil(t) would leave pending.
	for {
		gAt, gSchedAt, ok := g.ctrl.NextKey()
		if !ok || gAt > t {
			break
		}
		g.runSegment(gAt, gSchedAt)
		g.advanceShards(gAt)
		g.ctrl.Step()
	}
	g.runSegment(t, math.MaxInt64)
	g.advanceShards(t)
	if t > g.now {
		g.now = t
	}
}

// Run executes windows until every engine is drained — the sharded
// equivalent of Engine.Run, used by harnesses to drain a stopped call.
func (g *Group) Run() {
	for {
		l := g.checkLookahead()
		next, ok := g.earliest()
		if !ok {
			break
		}
		if next > g.now {
			g.now = next
		}
		g.window(g.now + l)
		g.now += l
	}
}

// Live sums outstanding pooled events across the control engine and all
// shards — the group-wide leak detector.
func (g *Group) Live() int {
	n := g.ctrl.Live()
	for _, s := range g.shards {
		n += s.Live()
	}
	return n
}

// Pending sums live queued events across the control engine, all shards,
// and all undelivered mailbox entries.
func (g *Group) Pending() int {
	n := g.ctrl.Pending()
	for _, s := range g.shards {
		n += s.Pending()
	}
	for _, m := range g.boxes {
		n += len(m.entries)
	}
	return n
}
