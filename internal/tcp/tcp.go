// Package tcp implements a SACK-based loss recovery loop with CUBIC window
// growth over the netem substrate.
//
// It stands in for the paper's iPerf3 competitor (§5.2: TCP CUBIC server
// 2 ms away) and is the building block for the Netflix traffic model
// (§5.3). The model is deliberately at the "congestion dynamics" level:
// segment-accurate sequencing, ack clocking, dup-ack fast retransmit with
// SACK-driven hole filling and pipe accounting (RFC 6675 in spirit), RTO
// with exponential backoff, and CUBIC's W(t) = C(t-K)^3 + Wmax growth — but
// no handshake or window scaling, which play no role in the paper's results.
//
// Segments and acks travel in envelopes from the sending host's pool:
// netem recycles one at delivery or drop, so a handler keeps none. The
// payloads come from free lists on the Flow: the port handler releases the
// one it is delivered, netem one it drops (netem.PayloadReleaser).
package tcp

import (
	"math"
	"slices"
	"time"

	"vcalab/internal/netem"
	"vcalab/internal/sim"
)

// Config gives a Flow its framing, the two values on which TCP and QUIC
// differ. Zero fields take the documented defaults.
type Config struct {
	MSS     int // payload bytes per segment (default 1460)
	AckSize int // ack packet wire size (default 40)
}

func (c *Config) defaults() {
	if c.MSS == 0 {
		c.MSS = 1460
	}
	if c.AckSize == 0 {
		c.AckSize = 40
	}
}

// A Flow's constants.
const (
	wireOverhead         = 40 // header bytes per packet on the wire
	initCwnd     float64 = 10 // initial window, packets
	// CUBIC's multiplicative decrease and scaling constant. Both are typed:
	// an untyped 0.7 would fold 1 - 0.7 exactly, to a float64 other than
	// 1 - float64(0.7), and move every CUBIC window.
	cubicBeta float64 = 0.7
	cubicC    float64 = 0.4
	rtoMin            = 200 * time.Millisecond // minimum RTO
)

type segment struct {
	Seq int64
	f   *Flow
}

func (s *segment) ReleasePayload() { s.f.segs.put(s) }

// ack carries the cumulative ack plus SACK information. Sacked lists
// out-of-order segments buffered at the receiver (capped; a modeling
// shortcut for SACK blocks — the wire size stays a constant AckSize).
type ack struct {
	CumAck int64
	Echo   time.Duration // SentAt of the segment that triggered this ack
	Sacked []int64       // keeps its array across reuse
	f      *Flow
}

func (a *ack) ReleasePayload() { a.f.acks.put(a) }

// freeList recycles one of a Flow's payload types; live are out of it.
type freeList[T any] struct {
	free []*T
	live int
}

func (l *freeList[T]) get() *T {
	l.live++
	if n := len(l.free) - 1; n >= 0 {
		p := l.free[n]
		l.free = l.free[:n]
		return p
	}
	return new(T)
}

func (l *freeList[T]) put(p *T) {
	l.live--
	l.free = append(l.free, p)
}

const maxSackList = 256

// segState tracks a sender-side segment in the SACK scoreboard.
type segState uint8

const (
	segOutstanding segState = iota // sent, fate unknown
	segSacked                      // receiver holds it (out of order)
	segLost                        // declared lost, awaiting retransmit
	segRexted                      // retransmitted, fate unknown
)

// Flow is a unidirectional bulk TCP transfer from a sender host to a
// receiver host/port. Create with NewFlow, then Start.
type Flow struct {
	Name    string
	ackName string // Name + "/ack", the reverse direction's accounting label

	eng  *sim.Engine
	cfg  Config
	src  *netem.Host
	dst  *netem.Host
	port int

	// Sender state.
	running    bool
	total      int64 // segments to send; 0 = unlimited
	nextSeq    int64
	cumAck     int64
	dupAcks    int
	cwnd       float64
	ssthresh   float64
	inRecovery bool
	recoverSeq int64
	// scoreboard tracks per-segment state for the unacked window
	// (RFC 6675 in spirit); pipeCnt counts segments believed in flight.
	scoreboard map[int64]segState
	highSacked int64
	pipeCnt    int
	segs       freeList[segment]

	// CUBIC state.
	wMax       float64
	epochStart time.Duration

	// RTT estimation.
	srtt, rttvar time.Duration
	rtoBackoff   int
	rtoTimer     sim.Timer
	rtoArmed     bool
	rtoFn        sim.HandlerFunc // f.onRTO, bound once: a method value per arm allocates

	// Receiver state.
	rcvNext int64
	rcvBuf  map[int64]bool
	acks    freeList[ack]

	// Instrumentation.
	DeliveredSegs  int64 // in-order segments delivered to the app
	Retransmits    int64
	RTOCount       int64
	FastRecoveries int64

	onDeliver      func(t time.Duration, payloadBytes int)
	onComplete     func()
	completeSignal bool
}

// NewFlow wires a flow from src to dst:port. The receiver handler is
// registered on dst immediately; data does not move until Start.
func NewFlow(eng *sim.Engine, name string, src, dst *netem.Host, port int, cfg Config) *Flow {
	cfg.defaults()
	f := &Flow{
		Name: name, ackName: name + "/ack", eng: eng, cfg: cfg, src: src, dst: dst, port: port,
		cwnd: initCwnd, ssthresh: math.Inf(1),
		scoreboard: map[int64]segState{}, rcvBuf: map[int64]bool{},
	}
	f.rtoFn = f.onRTO
	dst.HandleFunc(port, f.onData)
	src.HandleFunc(port, f.onAck)
	return f
}

// OnDeliver registers a callback invoked for every in-order payload chunk
// delivered at the receiver (the throughput instrument).
func (f *Flow) OnDeliver(fn func(t time.Duration, payloadBytes int)) { f.onDeliver = fn }

// OnComplete registers a callback fired when a bounded transfer finishes.
func (f *Flow) OnComplete(fn func()) { f.onComplete = fn }

// Start begins transmitting. totalBytes = 0 means an unbounded (iPerf-like)
// flow; otherwise the flow completes after delivering that many bytes.
func (f *Flow) Start(totalBytes int64) {
	f.running = true
	if totalBytes > 0 {
		f.total = (totalBytes + int64(f.cfg.MSS) - 1) / int64(f.cfg.MSS)
	}
	f.epochStart = f.eng.Now()
	f.trySend()
}

// Stop halts the sender (e.g. the competing application ends).
func (f *Flow) Stop() {
	f.running = false
	f.rtoTimer.Stop()
}

func (f *Flow) trySend() {
	if !f.running {
		return
	}
	for float64(f.pipeCnt) < f.cwnd {
		if f.nextRexmit() {
			continue
		}
		if f.total > 0 && f.nextSeq >= f.total {
			return
		}
		f.scoreboard[f.nextSeq] = segOutstanding
		f.pipeCnt++
		f.sendSeg(f.nextSeq)
		f.nextSeq++
	}
}

// nextRexmit retransmits the lowest segment marked lost. It reports whether
// it sent anything.
func (f *Flow) nextRexmit() bool {
	var best int64 = -1
	for seq, st := range f.scoreboard {
		if st == segLost && (best == -1 || seq < best) {
			best = seq
		}
	}
	if best < 0 {
		return false
	}
	f.scoreboard[best] = segRexted
	f.pipeCnt++
	f.Retransmits++
	f.sendSeg(best)
	return true
}

func (f *Flow) sendSeg(seq int64) {
	s := f.segs.get()
	s.Seq, s.f = seq, f
	f.post(f.src, f.dst, f.cfg.MSS+wireOverhead, f.Name, s)
	f.ensureRTO()
}

// post sends payload from → to in a pooled envelope (see the package comment).
func (f *Flow) post(from, to *netem.Host, size int, flow string, payload any) {
	pkt := from.NewPacket()
	pkt.Size, pkt.Flow, pkt.Payload = size, flow, payload
	pkt.From = netem.Addr{Host: from.Name, Port: f.port}
	pkt.To = netem.Addr{Host: to.Name, Port: f.port}
	from.Send(pkt)
}

// ensureRTO arms the retransmission timer if it is not already ticking.
// Unlike armRTO it never postpones an armed timer: a retransmission that is
// itself lost must still be caught by the original deadline.
func (f *Flow) ensureRTO() {
	if f.rtoArmed {
		return
	}
	f.rtoArmed = true
	f.rtoTimer = f.eng.ScheduleHandler(f.rto(), f.rtoFn)
}

// onData runs at the receiver.
func (f *Flow) onData(pkt *netem.Packet) {
	seg := pkt.Payload.(*segment)
	defer seg.ReleasePayload()
	switch {
	case seg.Seq == f.rcvNext:
		f.rcvNext++
		delivered := int64(1)
		for f.rcvBuf[f.rcvNext] {
			delete(f.rcvBuf, f.rcvNext)
			f.rcvNext++
			delivered++
		}
		f.deliver(delivered)
	case seg.Seq > f.rcvNext:
		f.rcvBuf[seg.Seq] = true
	default:
		// Duplicate of already-delivered data; ack anyway.
	}
	a := f.acks.get()
	a.CumAck, a.Echo, a.Sacked, a.f = f.rcvNext, pkt.SentAt, a.Sacked[:0], f
	if len(f.rcvBuf) > 0 {
		for s := range f.rcvBuf {
			a.Sacked = append(a.Sacked, s)
		}
		// Sorted for determinism; lowest seqs are the most useful to the
		// sender, so the cap keeps those.
		slices.Sort(a.Sacked)
		if len(a.Sacked) > maxSackList {
			a.Sacked = a.Sacked[:maxSackList]
		}
	}
	f.post(f.dst, f.src, f.cfg.AckSize, f.ackName, a)
}

func (f *Flow) deliver(segs int64) {
	f.DeliveredSegs += segs
	if f.onDeliver != nil {
		f.onDeliver(f.eng.Now(), int(segs)*f.cfg.MSS)
	}
	if f.total > 0 && f.DeliveredSegs >= f.total && !f.completeSignal {
		f.completeSignal = true
		if f.onComplete != nil {
			f.onComplete()
		}
	}
}

// onAck runs at the sender.
func (f *Flow) onAck(pkt *netem.Packet) {
	a := pkt.Payload.(*ack)
	defer a.ReleasePayload()
	f.updateRTT(f.eng.Now() - a.Echo)

	for _, s := range a.Sacked {
		if s < f.cumAck {
			continue
		}
		if st, ok := f.scoreboard[s]; !ok || st == segOutstanding || st == segRexted {
			if ok && st != segSacked {
				f.pipeCnt--
			}
			f.scoreboard[s] = segSacked
			if s > f.highSacked {
				f.highSacked = s
			}
		}
	}

	if a.CumAck > f.cumAck {
		newly := a.CumAck - f.cumAck
		for s := f.cumAck; s < a.CumAck; s++ {
			if st, ok := f.scoreboard[s]; ok {
				if st == segOutstanding || st == segRexted {
					f.pipeCnt--
				}
				delete(f.scoreboard, s)
			}
		}
		f.cumAck = a.CumAck
		f.dupAcks = 0
		f.rtoBackoff = 0
		if f.inRecovery && f.cumAck >= f.recoverSeq {
			f.inRecovery = false
		}
		if !f.inRecovery {
			f.growCwnd(float64(newly))
		} else {
			f.markLostBelowHighSacked()
		}
		f.armRTO()
		f.trySend()
		return
	}

	// Duplicate ack.
	f.dupAcks++
	if f.dupAcks >= 3 && !f.inRecovery {
		f.fastRetransmit()
	}
	if f.inRecovery {
		f.markLostBelowHighSacked()
	}
	f.trySend() // pipe shrank via new SACK info
}

// markLostBelowHighSacked declares outstanding segments below the highest
// SACKed sequence lost: the receiver has buffered data beyond them, so they
// were dropped (FIFO links never reorder in this emulator).
func (f *Flow) markLostBelowHighSacked() {
	for seq := f.cumAck; seq < f.highSacked; seq++ {
		if f.scoreboard[seq] == segOutstanding {
			f.scoreboard[seq] = segLost
			f.pipeCnt--
		}
	}
}

func (f *Flow) fastRetransmit() {
	f.FastRecoveries++
	f.inRecovery = true
	f.recoverSeq = f.nextSeq
	f.markLostBelowHighSacked()
	f.enterLossEpoch()
}

// enterLossEpoch applies CUBIC's multiplicative decrease.
func (f *Flow) enterLossEpoch() {
	f.wMax = f.cwnd
	f.cwnd = math.Max(2, f.cwnd*cubicBeta)
	f.ssthresh = f.cwnd
	f.epochStart = f.eng.Now()
}

// growCwnd applies slow start below ssthresh and CUBIC above it.
func (f *Flow) growCwnd(ackedSegs float64) {
	if f.cwnd < f.ssthresh {
		f.cwnd += ackedSegs
		return
	}
	t := (f.eng.Now() - f.epochStart).Seconds()
	k := math.Cbrt(f.wMax * (1 - cubicBeta) / cubicC)
	rtt := f.srtt.Seconds()
	if rtt <= 0 {
		rtt = 0.02
	}
	wTarget := cubicC*math.Pow(t+rtt-k, 3) + f.wMax
	if wTarget > f.cwnd {
		f.cwnd += ackedSegs * (wTarget - f.cwnd) / f.cwnd
	} else {
		f.cwnd += ackedSegs * 0.01 / f.cwnd // TCP-friendly floor growth
	}
}

func (f *Flow) updateRTT(sample time.Duration) {
	if sample <= 0 {
		return
	}
	if f.srtt == 0 {
		f.srtt = sample
		f.rttvar = sample / 2
		return
	}
	diff := f.srtt - sample
	if diff < 0 {
		diff = -diff
	}
	f.rttvar = (3*f.rttvar + diff) / 4
	f.srtt = (7*f.srtt + sample) / 8
}

func (f *Flow) rto() time.Duration {
	rto := f.srtt + 4*f.rttvar
	if rto < rtoMin {
		rto = rtoMin
	}
	for i := 0; i < f.rtoBackoff && rto < time.Minute; i++ {
		rto *= 2
	}
	return rto
}

// armRTO restarts the timer after forward progress (new cumulative ack).
func (f *Flow) armRTO() {
	f.rtoTimer.Stop()
	f.rtoArmed = false
	if f.nextSeq == f.cumAck {
		return // nothing outstanding
	}
	f.ensureRTO()
}

func (f *Flow) onRTO(time.Duration) {
	f.rtoArmed = false
	if !f.running || f.nextSeq == f.cumAck {
		return
	}
	f.RTOCount++
	f.rtoBackoff++
	f.ssthresh = math.Max(2, f.cwnd/2)
	f.cwnd = 1
	f.wMax = f.ssthresh
	f.inRecovery = true
	f.recoverSeq = f.nextSeq
	f.dupAcks = 0
	f.epochStart = f.eng.Now()
	// Everything unacked and un-SACKed is presumed lost.
	for seq := f.cumAck; seq < f.nextSeq; seq++ {
		if st := f.scoreboard[seq]; st == segOutstanding || st == segRexted {
			f.scoreboard[seq] = segLost
			f.pipeCnt--
		}
	}
	f.trySend()
}
