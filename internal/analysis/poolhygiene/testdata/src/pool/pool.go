// Package pool exercises the poolhygiene analyzer against a miniature
// of the repo's pooled-object shapes: a Get method on a *Pool-suffixed
// receiver hands out ownership; Release (and the put helper) give it
// back; a Mailbox stands in for the ownership-transferring sinks
// (Host.Send, shard mailboxes).
package pool

type Buf struct {
	pool *bufPool
	n    int
}

type bufPool struct{ free []*Buf }

func (p *bufPool) Get() *Buf {
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free = p.free[:n-1]
		return b
	}
	return &Buf{pool: p}
}

func (p *bufPool) put(b *Buf) { p.free = append(p.free, b) }

func (b *Buf) Release() { b.pool.put(b) }

// Mailbox models a sink that takes over the release duty.
type Mailbox struct{ q []*Buf }

func (m *Mailbox) Post(b *Buf) { m.q = append(m.q, b) }

// Msg models a pooled control message (vca's FeedbackMsg / NackMsg /
// TWCCMsg): drawn from the pool by a typed getter, released by its
// consumer through ReleasePayload, carried there in an envelope's
// Payload field.
type Msg struct {
	pool *bufPool
	seq  int
}

func (p *bufPool) getFeedback() *Msg { return &Msg{pool: p} }

func (m *Msg) ReleasePayload() {}

// Envelope models netem.Packet: whoever holds it owns its Payload.
type Envelope struct{ Payload any }

func (m *Mailbox) Send(e *Envelope) {}

// retain / unref model vca's shared retransmission packet: several
// holders, the last unref recycles. A Slot is an RTX ring entry.
func (b *Buf) retain() *Buf { b.n++; return b }

func unref(b *Buf) {
	if b.n--; b.n == 0 {
		b.Release()
	}
}

type Slot struct{ pkt *Buf }

type Ring struct{ slots []Slot }

func (r *Ring) Put(i int, s Slot) { r.slots[i] = s }

func fanOut(b *Buf) {}

// ---- violations ----

// The ingress hold is taken, the early return forgets to give it back.
func retainLeakOnEarlyReturn(b *Buf, idle bool) {
	b.retain() // want `pooled value "b" acquired here is neither released nor ownership-transferred on a path reaching this return`
	if idle {
		return
	}
	fanOut(b)
	unref(b)
}

// Handing a retained value to a call is a use, not a transfer.
func retainLeakAfterFanOut(b *Buf) {
	ref := b.retain() // want `pooled value "ref" acquired here is neither released nor ownership-transferred`
	fanOut(ref)
}

// The pre-retain idiom left in place: other holders still point at b.
func recycleWhileRetained(b *Buf) {
	b.retain()
	fanOut(b)
	b.Release() // want `Release recycles "b" while it still holds a retained reference`
}

func deferredRecycleWhileRetained(p *bufPool, b *Buf) {
	b.retain()
	defer p.put(b) // want `put recycles "b" while it still holds a retained reference`
	fanOut(b)
}

func unrefTwice(b *Buf) {
	b.retain()
	unref(b)
	unref(b) // want `released twice on this path`
}

// A report built and then abandoned on the early return.
func msgLeakOnEarlyReturn(p *bufPool, m *Mailbox, e *Envelope, idle bool) {
	fb := p.getFeedback() // want `pooled value "fb" acquired here is neither released nor ownership-transferred on a path reaching this return`
	fb.seq = 1
	if idle {
		return
	}
	e.Payload = fb
	m.Send(e)
}

// The consumer releases, then a second return path releases again.
func msgDoubleRelease(p *bufPool) {
	fb := p.getFeedback()
	fb.ReleasePayload()
	fb.ReleasePayload() // want `released twice on this path`
}

// Relaying a message after its consumer released it.
func msgUseAfterRelease(p *bufPool, e *Envelope) {
	fb := p.getFeedback()
	fb.ReleasePayload()
	e.Payload = fb // want `use of pooled value "fb" after it was released`
}

// Straight-line leak: acquired, read, never released.
func leak(p *bufPool) int {
	b := p.Get() // want `pooled value "b" acquired here is neither released nor ownership-transferred`
	return b.n
}

// Leak on one early-return path only.
func leakOnEarlyReturn(p *bufPool, drop bool) {
	b := p.Get() // want `neither released nor ownership-transferred on a path reaching this return`
	if drop {
		return
	}
	b.Release()
}

func useAfterRelease(p *bufPool) int {
	b := p.Get()
	b.Release()
	return b.n // want `use of pooled value "b" after it was released`
}

func doubleRelease(p *bufPool) {
	b := p.Get()
	b.Release()
	b.Release() // want `released twice on this path`
}

func deferThenExplicit(p *bufPool) {
	b := p.Get()
	defer b.Release()
	b.Release() // want `also released by a defer`
}

// A value acquired inside a loop body must die inside it: the next
// iteration rebinds b and the previous packet is gone.
func leakEachIteration(p *bufPool, n int) {
	total := 0
	for i := 0; i < n; i++ {
		b := p.Get() // want `the end of the loop body`
		total += b.n
	}
	_ = total
}

func overwriteWhileLive(p *bufPool) {
	b := p.Get() // want `overwritten while still owned`
	b = p.Get()
	b.Release()
}

// ---- legal patterns ----

// Released on every path.
func releaseBothArms(p *bufPool, keep bool) {
	b := p.Get()
	if keep {
		b.Release()
		return
	}
	b.Release()
}

// Ownership transfer: posting to a mailbox hands the release duty on
// (the shard-boundary packet idiom).
func transferViaMailbox(p *bufPool, m *Mailbox) {
	b := p.Get()
	m.Post(b)
}

// Deferred release with reads in between (the SFU onMedia idiom).
func deferRelease(p *bufPool) int {
	b := p.Get()
	defer b.Release()
	return b.n
}

// Returning the value transfers ownership to the caller.
func handOut(p *bufPool) *Buf {
	return p.Get()
}

// Storing the message into the envelope's Payload hands it over: the
// envelope's consumer (or netem's drop path) releases it.
func msgHandoffIntoPayload(p *bufPool, m *Mailbox, e *Envelope) {
	fb := p.getFeedback()
	fb.seq = 2
	e.Payload = fb
	m.Send(e)
}

// Nothing to report: the message goes back unused (the twccTick idiom).
func msgReleaseUnused(p *bufPool, e *Envelope, ok bool) {
	fb := p.getFeedback()
	if !ok {
		fb.ReleasePayload()
		return
	}
	e.Payload = fb
}

// Acquire-release inside a loop body is fine.
func perIteration(p *bufPool, n int) {
	for i := 0; i < n; i++ {
		b := p.Get()
		b.Release()
	}
}

// The SFU ingress idiom: hold while fanning out, let go on exit.
func retainAcrossFanOut(b *Buf, running bool) {
	b.retain()
	if running {
		fanOut(b)
	}
	unref(b)
}

// The slot store: the new reference goes into the ring entry, which
// owes the unref when it is evicted.
func retainIntoSlot(r *Ring, b *Buf, i int) {
	r.Put(i, Slot{pkt: b.retain()})
}

func retainBoundThenStored(r *Ring, b *Buf, i int) {
	ref := b.retain()
	r.slots[i].pkt = ref
}

// Eviction: the slot's reference, read back out of the ring, is let go.
func evict(r *Ring, i int) {
	unref(r.slots[i].pkt)
	r.slots[i] = Slot{}
}
