// Package netem emulates the paper's laboratory network: hosts wired to
// routers and switches through rate-limited, delayed, drop-tail links.
//
// It plays the role of the two Dell laptops, the Turris Omnia router, and the
// `tc` traffic shaping of MacMillan et al. (IMC 2021, §2.2). A Link models a
// unidirectional wire with a serialization rate, a propagation delay and a
// finite drop-tail queue; Rate can be changed mid-simulation, which is how
// experiments emulate `tc` re-shaping and the 30-second capacity drops of §4.
package netem

import (
	"fmt"
	"math"
	"math/bits"
	"time"
	"unsafe"

	"vcalab/internal/obs"
	"vcalab/internal/reuse"
	"vcalab/internal/sim"
)

// Addr identifies an application endpoint: a named host plus a port.
type Addr struct {
	Host string
	Port int
}

func (a Addr) String() string { return fmt.Sprintf("%s:%d", a.Host, a.Port) }

// Packet is the unit of transmission. Size is the full on-wire size in
// bytes (headers included); Payload carries a typed application object
// (an rtp.Packet, a TCP segment, ...) that the emulator never inspects.
//
// Hot-path senders obtain packets from Host.NewPacket; such packets are
// recycled by the emulator at their terminal point (final delivery, queue
// drop, or unrouteable) and must not be retained afterwards. Packets
// built directly with a composite literal are never recycled.
type Packet struct {
	Size    int
	From    Addr
	To      Addr
	Flow    string // accounting label, e.g. "zoom/c1/video"
	Payload any
	SentAt  time.Duration // stamped by Host.Send

	pool *PacketPool // owning free list, nil for literal packets
	// link is the wire the packet is propagating on: set when it leaves
	// serialization, read when its propagation event fires (OnEvent).
	link *Link
}

// PacketPool is a single-threaded free list of Packet structs, owned by
// one host within one engine. Pooling keeps the per-packet transit path
// allocation-free; determinism is unaffected because reuse never changes
// event ordering.
type PacketPool struct {
	free []*Packet
	// live counts packets handed out by Get and not yet Released — the
	// conservation invariant the fuzz harness asserts reaches zero once a
	// simulation drains. A terminal point that forgets Release shows up
	// here as a permanent positive residue.
	live int
}

// Get returns a zeroed packet owned by the pool.
func (p *PacketPool) Get() *Packet {
	p.live++
	if n := len(p.free) - 1; n >= 0 {
		pkt := p.free[n]
		p.free = p.free[:n]
		return pkt
	}
	return &Packet{pool: p}
}

func (p *PacketPool) put(pkt *Packet) {
	p.live--
	*pkt = Packet{pool: p}
	p.free = append(p.free, pkt)
}

// Live reports how many pooled packets are currently out in the emulator
// (obtained by Get, not yet Released). After a simulation drains it must
// be zero: every drop path and delivery point owes the pool exactly one
// Release per packet.
func (p *PacketPool) Live() int { return p.live }

// Release returns the packet to its owning pool. It is the emulator's
// explicit recycle point, called once per packet at final delivery or
// drop; it is a no-op for packets not obtained from a pool.
func (pkt *Packet) Release() {
	if pkt.pool != nil {
		pkt.pool.put(pkt)
	}
}

// PayloadReleaser is implemented by pooled payload types (vca's media
// packets). When the emulator terminates a packet that never reaches a
// consumer — a queue or impairment drop, an unrouteable address — it
// recycles the payload too, so loss-heavy workloads stay allocation-free.
// Delivered packets are NOT payload-released: their port handler is the
// payload's one consumer.
type PayloadReleaser interface {
	ReleasePayload()
}

// discard terminates a packet that will never be delivered.
func (pkt *Packet) discard() {
	if pr, ok := pkt.Payload.(PayloadReleaser); ok {
		pr.ReleasePayload()
	}
	pkt.Release()
}

// Handler consumes delivered packets.
type Handler interface {
	Deliver(pkt *Packet)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(*Packet)

// Deliver calls f(pkt).
func (f HandlerFunc) Deliver(pkt *Packet) { f(pkt) }

// LinkConfig describes one direction of a wire.
type LinkConfig struct {
	// RateBps is the serialization rate in bits per second.
	// Zero or negative means "effectively infinite" (no serialization
	// delay, no queueing) — used for the paper's 1 Gbps uncontended hops.
	RateBps float64
	// Delay is the one-way propagation delay.
	Delay time.Duration
	// QueueBytes bounds the drop-tail queue, excluding the packet
	// currently being serialized. Zero selects a 200 ms buffer at
	// RateBps with a 5-MTU floor — the depth of a `tc` token bucket on
	// a home router: deep enough that loss-based senders see
	// bufferbloat before loss, shallow enough at sub-Mbps rates that a
	// full-resolution keyframe burst overflows it (Fig 3b).
	QueueBytes int

	// LossProb drops each packet independently with this probability
	// (random impairment, the paper's §8 future work — distinct from
	// congestive drop-tail loss).
	LossProb float64
	// Jitter adds a uniformly distributed extra delay in [0, Jitter] to
	// each packet's propagation. Jittered packets may reorder, as on a
	// real path.
	Jitter time.Duration
}

// DefaultQueueBytes returns the queue depth used when LinkConfig.QueueBytes
// is zero: 200 ms worth of bytes at the given rate, floored at 5 full
// 1500-byte packets so slow links can still absorb a small burst.
func DefaultQueueBytes(rateBps float64) int { return queueBytes(rateBps, 200*time.Millisecond) }

// queueBytes converts a time depth at a rate into a byte bound, floored at
// 5 full 1500-byte packets. A bound past math.MaxInt (an infinite rate
// included) saturates there: converting it to int would wrap.
func queueBytes(rateBps float64, depth time.Duration) int {
	q := rateBps / 8 * depth.Seconds()
	switch {
	case !(q >= 5*1500): // NaN too
		return 5 * 1500
	case q >= math.MaxInt:
		return math.MaxInt
	}
	return int(q)
}

// Link is a unidirectional, rate-limited, drop-tail wire. Create with
// NewLink. Counters are exported for measurement code.
type Link struct {
	name string
	// eng runs the send side — queue, serialization, drops — and its
	// tracer records enqueue/dequeue/drop; rx runs the deliver event and
	// its tracer records deliver. They are the same engine until Handoff
	// makes rx the destination shard's.
	eng, rx *sim.Engine
	cfg     LinkConfig
	dst     Handler

	// queue is the drop-tail FIFO, a ring of power-of-two capacity: the
	// qLen packets waiting start at qHead and wrap. It grows by doubling
	// and is reused for the link's lifetime.
	queue       []queued
	qHead, qLen int
	queuedSize  int
	busy        bool
	paused      bool    // serialization gate (a cellular handover gap)
	inService   *Packet // the packet currently being serialized

	// loss, when set, replaces the independent LossProb draw with a
	// stateful per-packet loss process (Gilbert–Elliott WiFi bursts).
	loss LossModel
	// aqm, when set, is consulted at dequeue and may drop the head
	// packet early (CoDel on a bufferbloated queue).
	aqm *CoDel

	// Statistics, cumulative since creation.
	Delivered      uint64
	DeliveredBytes uint64
	Drops          uint64
	DroppedBytes   uint64
	// AQMDrops counts the subset of Drops decided by the AQM at dequeue
	// (also included in Drops).
	AQMDrops uint64
	// queueHW is the deepest the drop-tail queue has been, in bytes.
	queueHW int
	// pausedAt/pausedTotal track serialization-gate closures (cellular
	// handover gaps) for the pause-time metric.
	pausedAt    time.Duration
	pausedTotal time.Duration

	onSend []func(*Packet)

	// handoff, when set, makes this a shard-boundary link: instead of
	// scheduling the propagation event locally, deliverAfter posts it to
	// the mailbox, and the Group injects it into the destination shard's
	// engine at the next window barrier (see Handoff).
	handoff *sim.Mailbox
	// handoffPayload re-homes the packet payload's pool ownership to the
	// destination shard during the barrier drain; nil passes the payload
	// pointer through (correct for immutable signalling messages).
	handoffPayload func(any) any
	// boundaryPool owns the envelope clones delivered across the
	// boundary. It is touched only by the barrier drain (Get) and the
	// destination shard (put at the terminal point), which never run
	// concurrently, so it needs no locking.
	boundaryPool PacketPool
}

// queued is one drop-tail queue slot: the packet and the instant it
// entered the queue, which the AQM reads at dequeue as the sojourn start.
type queued struct {
	pkt *Packet
	at  time.Duration
}

// Engine returns the engine this link schedules on — in a sharded run,
// the shard that owns the link's send side.
func (l *Link) Engine() *sim.Engine { return l.eng }

// QueueHighWater reports the deepest the drop-tail queue has been, in
// bytes — the buried counter behind every "why did latency spike" hunt.
func (l *Link) QueueHighWater() int { return l.queueHW }

// PausedTotal reports the cumulative time the serialization gate has
// been closed, including the currently open closure if any.
func (l *Link) PausedTotal() time.Duration {
	total := l.pausedTotal
	if l.paused {
		total += l.eng.Now() - l.pausedAt
	}
	return total
}

// LossModel returns the installed stateful loss process, or nil. Models
// install mid-run via scenario timelines, so metrics samplers re-check
// on every tick rather than capturing at setup.
func (l *Link) LossModel() LossModel { return l.loss }

// OnSend registers fn to observe every packet offered to the link, before
// any queueing or drop decision — the equivalent of a capture tap at the
// link ingress, which is where the paper's tcpdump sat.
func (l *Link) OnSend(fn func(*Packet)) { l.onSend = append(l.onSend, fn) }

// NewLink creates a link that delivers packets to dst.
func NewLink(eng *sim.Engine, name string, cfg LinkConfig, dst Handler) *Link {
	if cfg.RateBps > 0 && cfg.QueueBytes == 0 {
		cfg.QueueBytes = DefaultQueueBytes(cfg.RateBps)
	}
	return &Link{name: name, eng: eng, rx: eng, cfg: cfg, dst: dst}
}

// Name returns the label the link was created with.
func (l *Link) Name() string { return l.name }

// Rate returns the current serialization rate in bits per second
// (0 = infinite).
func (l *Link) Rate() float64 { return l.cfg.RateBps }

// SetRate changes the serialization rate, emulating `tc` re-shaping. The
// packet currently being serialized finishes at the old rate; queued and
// future packets use the new one. Passing 0 removes the constraint.
// The queue depth is NOT resized: the paper's router buffer is physical.
func (l *Link) SetRate(bps float64) { l.cfg.RateBps = bps }

// SetQueueBytes changes the drop-tail queue limit.
func (l *Link) SetQueueBytes(n int) { l.cfg.QueueBytes = n }

// QueueBytes returns the drop-tail queue limit.
func (l *Link) QueueBytes() int { return l.cfg.QueueBytes }

// Delay returns the current one-way propagation delay.
func (l *Link) Delay() time.Duration { return l.cfg.Delay }

// SetDelay changes the propagation delay mid-simulation (a route change, a
// WAN re-path). Packets already propagating keep the delay they left with;
// packets entering the wire afterwards use the new one, so a delay cut can
// reorder across the change instant exactly as a real re-route would.
func (l *Link) SetDelay(d time.Duration) { l.cfg.Delay = d }

// QueuedBytes reports the bytes currently waiting (not the one in service).
func (l *Link) QueuedBytes() int { return l.queuedSize }

// SetImpairment reconfigures random loss and jitter mid-simulation.
func (l *Link) SetImpairment(lossProb float64, jitter time.Duration) {
	l.cfg.LossProb = lossProb
	l.cfg.Jitter = jitter
}

// SetLossModel installs (or, with nil, removes) a stateful per-packet loss
// process consulted at the link ingress in place of the independent
// LossProb draw. The model owns its randomness, so installing one never
// perturbs the engine's shared random stream.
func (l *Link) SetLossModel(m LossModel) { l.loss = m }

// SetAQM installs (or, with nil, removes) a CoDel instance consulted when
// a queued packet is dequeued for serialization. Pair with a deep queue
// (ApplyBloat) to model a bufferbloated last-mile hop with and without
// active queue management.
func (l *Link) SetAQM(c *CoDel) { l.aqm = c }

// SetPaused gates serialization: while paused, a rate-limited link stops
// starting new transmissions — arriving packets queue (and overflow the
// drop-tail bound as usual) until the link resumes. The packet already on
// the wire finishes normally. This is how a cellular handover gap stalls a
// last-mile link without losing its queue. Pausing an unconstrained
// (RateBps <= 0) link has no effect: with no serialization stage there is
// nothing to gate.
func (l *Link) SetPaused(p bool) {
	if l.paused == p {
		return
	}
	l.paused = p
	if p {
		l.pausedAt = l.eng.Now()
	} else {
		l.pausedTotal += l.eng.Now() - l.pausedAt
	}
	if !p && !l.busy {
		l.startNext()
	}
}

// Paused reports whether the serialization gate is closed.
func (l *Link) Paused() bool { return l.paused }

// Send enqueues pkt for transmission, dropping it if the queue is full.
func (l *Link) Send(pkt *Packet) {
	for _, fn := range l.onSend {
		fn(pkt)
	}
	if l.loss != nil && l.loss.Lose() {
		l.drop(pkt, false)
		return
	}
	if l.cfg.LossProb > 0 {
		// p >= 1 always loses — skip the draw, so hard partitions
		// consume no engine randomness and the RNG stream stays aligned
		// across shard layouts.
		if l.cfg.LossProb >= 1 || l.eng.Rand().Float64() < l.cfg.LossProb {
			l.drop(pkt, false)
			return
		}
	}
	if l.cfg.RateBps <= 0 {
		// Infinite-rate wire: pure propagation delay.
		l.deliverAfter(pkt, l.cfg.Delay)
		return
	}
	if l.busy || l.paused {
		if l.queuedSize+pkt.Size > l.cfg.QueueBytes {
			l.drop(pkt, false)
			return
		}
		l.enqueue(pkt)
		l.queuedSize += pkt.Size
		if l.queuedSize > l.queueHW {
			l.queueHW = l.queuedSize
		}
		l.eng.Tracer().Packet(obs.EvEnqueue, l.eng.Now(), l.name, pkt.Flow, pkt.To.Host, pkt.Size, l.queuedSize, false)
		return
	}
	l.transmit(pkt)
}

// enqueue appends pkt at the ring's tail, stamped with the current time.
func (l *Link) enqueue(pkt *Packet) {
	if l.qLen == len(l.queue) {
		grown := make([]queued, max(2*len(l.queue), 8))
		n := copy(grown, l.queue[l.qHead:])
		copy(grown[n:], l.queue[:l.qHead])
		l.queue, l.qHead = grown, 0
	}
	l.queue[(l.qHead+l.qLen)&(len(l.queue)-1)] = queued{pkt, l.eng.Now()}
	l.qLen++
}

func (l *Link) transmit(pkt *Packet) {
	l.busy = true
	l.inService = pkt
	var tx time.Duration
	if l.cfg.RateBps > 0 {
		tx = time.Duration(float64(pkt.Size*8) / l.cfg.RateBps * float64(time.Second))
	}
	// RateBps <= 0 here means the constraint was removed while packets
	// were queued: they flush with zero serialization delay.
	l.eng.ScheduleHandler(tx, l)
}

// OnEvent implements sim.Handler: serialization of the in-service packet
// completed. It hands the packet to the propagation stage before it starts
// on the queue head, so the propagation event takes the lower sequence
// number.
func (l *Link) OnEvent(time.Duration) {
	pkt := l.inService
	l.inService = nil
	l.deliverAfter(pkt, l.cfg.Delay)
	l.busy = false
	if !l.paused {
		l.startNext()
	}
}

// startNext dequeues through the AQM until a packet survives, then starts
// serializing it. Head-drop decisions happen at dequeue time, as in a real
// CoDel: the dropped packet already paid its queue wait.
func (l *Link) startNext() {
	now := l.eng.Now()
	for l.qLen > 0 {
		q := l.queue[l.qHead]
		next := q.pkt
		l.queue[l.qHead] = queued{}
		l.qHead = (l.qHead + 1) & (len(l.queue) - 1)
		l.qLen--
		l.queuedSize -= next.Size
		if l.aqm != nil && l.aqm.dropOnDequeue(now, now-q.at) {
			l.AQMDrops++
			l.drop(next, true)
			continue
		}
		l.eng.Tracer().Packet(obs.EvDequeue, now, l.name, next.Flow, next.To.Host, next.Size, l.queuedSize, false)
		l.transmit(next)
		return
	}
}

func (l *Link) deliverAfter(pkt *Packet, d time.Duration) {
	if l.cfg.Jitter > 0 {
		d += time.Duration(l.eng.Rand().Float64() * float64(l.cfg.Jitter))
	}
	pkt.link = l
	if l.handoff != nil {
		// Boundary link: the propagation event crosses shards. Post with
		// exactly the key ScheduleHandler would have stamped — arrival
		// time, current clock, next source seq — so the destination merge
		// reproduces the single-engine order.
		now := l.eng.Now()
		l.handoff.Post(now+d, now, l.eng.TakeSeq(), pkt)
		return
	}
	l.eng.ScheduleHandler(d, pkt)
}

// OnEvent implements sim.Handler: the packet finished propagating across
// pkt.link. Each packet in flight is its own propagation event's handler,
// so the transit path allocates nothing; do not call it directly. On a
// boundary link this runs on the destination shard; the delivery-side
// counters below are written only here, never by the send path, so the
// split needs no synchronization beyond the window barrier.
func (pkt *Packet) OnEvent(now time.Duration) {
	l := pkt.link
	l.Delivered++
	l.DeliveredBytes += uint64(pkt.Size)
	// The send-side queue belongs to the other shard on a boundary link;
	// even loading it here would race with the source shard's enqueue
	// path. Boundary deliveries report depth 0.
	q := 0
	if l.handoff == nil {
		q = l.queuedSize
	}
	l.rx.Tracer().Packet(obs.EvDeliver, now, l.name, pkt.Flow, pkt.To.Host, pkt.Size, q, false)
	l.dst.Deliver(pkt)
}

// Handoff converts this link into a shard-boundary link delivering into
// dst (the destination region's engine): propagation events are posted
// to the returned mailbox instead of scheduled locally, and each packet
// envelope is re-homed to a boundary-owned pool during the barrier
// drain. Register the mailbox with the shard Group. The link itself —
// queue, serialization, drop accounting — stays wholly on the source
// shard; only the final delivery hop crosses, and its deliver event
// records into dst's tracer.
func (l *Link) Handoff(dst *sim.Engine) *sim.Mailbox {
	l.rx = dst
	l.handoff = sim.NewMailbox(l.eng, dst, l.transferPacket)
	return l.handoff
}

// SetHandoffPayload installs the payload re-homing hook used during the
// barrier drain (media packets clone into the destination region's pool;
// immutable signalling passes through). Wired by the sharded call
// builder once the call — and with it the destination pools — exists.
func (l *Link) SetHandoffPayload(fn func(any) any) { l.handoffPayload = fn }

// transferPacket is the mailbox transfer hook: it runs at a window
// barrier with both shards parked, clones the envelope into the
// boundary pool, re-homes the payload, and releases the source-side
// envelope back to its owning pool. The clone is the event the
// destination shard dispatches.
func (l *Link) transferPacket(h sim.Handler) sim.Handler {
	src := h.(*Packet)
	dup := l.boundaryPool.Get()
	dup.Size, dup.From, dup.To, dup.Flow, dup.SentAt, dup.link = src.Size, src.From, src.To, src.Flow, src.SentAt, l
	if l.handoffPayload != nil {
		dup.Payload = l.handoffPayload(src.Payload)
	} else {
		dup.Payload = src.Payload
	}
	src.Payload = nil
	src.Release()
	return dup
}

// BoundaryPoolLive reports the boundary pool's outstanding envelope
// count — zero once a sharded run drains, the cross-shard half of the
// packet-conservation invariant.
func (l *Link) BoundaryPoolLive() int { return l.boundaryPool.Live() }

func (l *Link) drop(pkt *Packet, aqm bool) {
	l.Drops++
	l.DroppedBytes += uint64(pkt.Size)
	l.eng.Tracer().Packet(obs.EvDrop, l.eng.Now(), l.name, pkt.Flow, pkt.To.Host, pkt.Size, l.queuedSize, aqm)
	pkt.discard()
}

// Host is a named endpoint running one or more applications, each bound to
// a port. Outbound traffic leaves through the host's uplink.
type Host struct {
	Name string

	eng    *sim.Engine
	uplink *Link
	// ports is scanned linearly on every delivery: a host binds a handful
	// of ports, and three integer compares beat hashing one.
	ports []portBinding
	taps  []func(*Packet)
	// pool is taken from hostPools at NewHost and handed back by Release,
	// so the packets on its free list, which point back at it, move with it.
	pool *PacketPool

	// Unrouteable counts packets delivered to a port nobody listens on.
	Unrouteable uint64
}

// NewPacket returns a zeroed packet from the host's free list. The
// emulator recycles it at its terminal point (final delivery, drop, or
// unrouteable), so the caller must not retain it after Send.
func (h *Host) NewPacket() *Packet { return h.pool.Get() }

// PoolLive reports the host pool's outstanding packet count — the
// packet-pool conservation invariant: once a simulation drains, every
// packet this host sent has reached a terminal point and been Released,
// so the count must read zero. A leaky drop path shows up here.
func (h *Host) PoolLive() int { return h.pool.Live() }

// hostPools holds the packet pools of released hosts.
var hostPools = reuse.New[*PacketPool]()

// NewHost creates a host. Attach its uplink with SetUplink once the
// topology is wired.
func NewHost(eng *sim.Engine, name string) *Host {
	pool := hostPools.Take()
	if pool == nil {
		pool = &PacketPool{}
	}
	return &Host{Name: name, eng: eng, pool: pool}
}

// Release hands the host's packet pool to the next NewHost in the process.
// Packets still out of it (in flight, queued) are abandoned with the events
// and links that hold them; the free ones were zeroed when put. Call it once
// the host's engine will run no more; nothing of the host may be used
// afterwards. A second Release does nothing.
func (h *Host) Release() {
	if h.pool == nil {
		return
	}
	h.pool.live = 0
	hostPools.Put(h.pool)
	h.pool = nil
}

type portBinding struct {
	port int
	h    Handler
}

// SetUplink sets the link outbound packets are sent through.
func (h *Host) SetUplink(l *Link) { h.uplink = l }

// Uplink returns the host's outbound link (may be nil before wiring).
func (h *Host) Uplink() *Link { return h.uplink }

// Handle registers a handler for a local port, replacing any previous one.
func (h *Host) Handle(port int, fn Handler) {
	for i := range h.ports {
		if h.ports[i].port == port {
			h.ports[i].h = fn
			return
		}
	}
	h.ports = append(h.ports, portBinding{port, fn})
}

// HandleFunc registers a handler function for a local port.
func (h *Host) HandleFunc(port int, fn func(*Packet)) { h.Handle(port, HandlerFunc(fn)) }

// Tap registers fn to observe every packet delivered to this host,
// regardless of port. Taps run before the port handler.
func (h *Host) Tap(fn func(*Packet)) { h.taps = append(h.taps, fn) }

// Send stamps and transmits pkt through the host uplink. It panics if the
// host has no uplink, which is always a topology-wiring bug.
func (h *Host) Send(pkt *Packet) {
	if h.uplink == nil {
		panic("netem: host " + h.Name + " has no uplink")
	}
	pkt.SentAt = h.eng.Now()
	h.uplink.Send(pkt)
}

// Deliver implements Handler: dispatches to the registered port handler,
// then recycles the packet — a host is every packet's terminal point.
func (h *Host) Deliver(pkt *Packet) {
	for _, tap := range h.taps {
		tap(pkt)
	}
	for i := range h.ports {
		if h.ports[i].port == pkt.To.Port {
			h.ports[i].h.Deliver(pkt)
			pkt.Release()
			return
		}
	}
	h.Unrouteable++
	pkt.discard()
}

// Router forwards packets by destination host name. It also models the
// paper's unmanaged switch (a switch is just a router whose links are
// uncontended).
//
// The name table is the only routing state. In front of it sits a memo
// keyed by the identity of the destination string — its data pointer and
// length — because senders address every packet of a flow with the same
// string value: a hit costs one multiply and two compares where the
// table costs a string hash. Equal pointer and length means equal bytes,
// so a hit can never disagree with the table; any other string, equal
// contents included, misses and is resolved by name.
type Router struct {
	Name   string
	routes map[string]*Link
	def    *Link
	// memo is direct-mapped, sized from the route count on the first
	// delivery after a routing change; nil until then.
	memo      []routeMemo
	memoShift uint

	// Unrouteable counts packets with no matching route and no default.
	Unrouteable uint64
}

// routeMemo remembers how one destination string resolved. The slot
// keeps the string's bytes alive, so their address cannot be reused by
// another name while the slot can still match it.
type routeMemo struct {
	key  *byte // data pointer of the Host string last resolved here
	n    int   // and its length
	next *Link // the named route, else the default; nil: unrouteable
}

// NewRouter creates an empty router.
func NewRouter(name string) *Router {
	return &Router{Name: name, routes: map[string]*Link{}}
}

// Route directs traffic for the named destination host through l.
func (r *Router) Route(hostName string, l *Link) {
	r.routes[hostName] = l
	r.memo = nil
}

// DefaultRoute directs traffic with no specific route through l
// (the "to the Internet" port).
func (r *Router) DefaultRoute(l *Link) {
	r.def = l
	r.memo = nil
}

// Deliver implements Handler.
func (r *Router) Deliver(pkt *Packet) {
	if l := r.resolve(pkt.To.Host); l != nil {
		l.Send(pkt)
		return
	}
	r.Unrouteable++
	pkt.discard()
}

// resolve returns the link toward host: its named route, else the
// default route, else nil.
func (r *Router) resolve(host string) *Link {
	if r.memo == nil {
		// Four slots per destination keep most of them from sharing one.
		width := uint(bits.Len(uint(4*len(r.routes) + 3)))
		r.memo = make([]routeMemo, 1<<width)
		r.memoShift = 64 - width
	}
	key := unsafe.StringData(host)
	m := &r.memo[uint64(uintptr(unsafe.Pointer(key)))*0x9E3779B97F4A7C15>>r.memoShift]
	if m.key == key && m.n == len(host) && key != nil {
		return m.next
	}
	l, ok := r.routes[host]
	if !ok {
		l = r.def
	}
	*m = routeMemo{key, len(host), l}
	return l
}

// Attach wires host h to router r with a symmetric pair of links (both
// configured as cfg): the host's uplink toward the router, and the
// router's route back to the host. It returns (up, down). This is the
// standard "host hangs off a router" hop used by multi-router topologies.
func Attach(eng *sim.Engine, h *Host, r *Router, cfg LinkConfig) (up, down *Link) {
	up = NewLink(eng, h.Name+"-"+r.Name, cfg, r)
	down = NewLink(eng, r.Name+"-"+h.Name, cfg, h)
	h.SetUplink(up)
	r.Route(h.Name, down)
	return up, down
}
