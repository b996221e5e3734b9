// Package apps implements the competing applications of §5: an iPerf3-like
// bulk TCP flow (§5.2), a Netflix-like ABR client that opens parallel TCP
// connections under scarcity (§5.3, Fig 14: 28 connections over a
// 120-second fight, 11 in parallel at peak), and a YouTube-like ABR client
// over a QUIC flow.
package apps

import (
	"time"

	"vcalab/internal/netem"
	"vcalab/internal/sim"
	"vcalab/internal/stats"
	"vcalab/internal/tcp"
)

// IPerf is a single long-lived bulk TCP flow, the paper's iPerf3 stand-in.
// The data flows from Server to Client for downlink competition and the
// reverse for uplink competition — callers choose by picking src and dst.
type IPerf struct {
	Flow  *tcp.Flow
	Meter *stats.Meter
}

// NewIPerf wires the flow from src to dst.
func NewIPerf(eng *sim.Engine, src, dst *netem.Host, port int) *IPerf {
	ip := &IPerf{
		Flow:  tcp.NewFlow(eng, "iperf3", src, dst, port, tcp.Config{}),
		Meter: stats.NewMeter(time.Second),
	}
	ip.Flow.OnDeliver(func(at time.Duration, n int) { ip.Meter.AddBytes(at, n) })
	return ip
}

// Start begins the unbounded transfer.
func (ip *IPerf) Start() { ip.Flow.Start(0) }

// Stop halts it.
func (ip *IPerf) Stop() { ip.Flow.Stop() }

// abrLadder is a typical streaming bitrate ladder (bps).
var abrLadder = []float64{235_000, 375_000, 560_000, 750_000, 1_050_000, 1_750_000, 3_000_000}

// Netflix models the Netflix client's behaviour under constrained capacity:
// chunked ABR fetching over persistent TCP connections, opening additional
// parallel connections when throughput undershoots the selected rendition
// (the paper observed 28 connections, 11 parallel, each >100 kbit).
type Netflix struct {
	eng    *sim.Engine
	client *netem.Host // the viewer (data sink)
	server *netem.Host // CDN edge (data source)

	Meter *stats.Meter

	// ConnectionsOpened counts every TCP connection created (Fig 14b).
	ConnectionsOpened int
	// PeakParallel is the maximum simultaneously active connections.
	PeakParallel int

	chunkSeconds  float64
	bufferSeconds float64
	rateIdx       int
	basePort      int
	active        map[int]*tcp.Flow
	nextPort      int
	ticker        *sim.Ticker
	running       bool

	fetchStart   time.Duration
	fetchedBytes int64
	fetchTarget  int64
	prevClean    bool
	usedHelpers  bool
	lastHelper   time.Duration
}

// NewNetflix creates the client. Data flows server→client.
func NewNetflix(eng *sim.Engine, client, server *netem.Host, basePort int) *Netflix {
	return &Netflix{
		eng:          eng,
		client:       client,
		server:       server,
		Meter:        stats.NewMeter(time.Second),
		chunkSeconds: 4,
		rateIdx:      2,
		basePort:     basePort,
		nextPort:     basePort,
		active:       map[int]*tcp.Flow{},
	}
}

// Start begins playback.
func (n *Netflix) Start() {
	n.running = true
	n.startChunk()
	n.ticker = n.eng.EveryHandler(time.Second, sim.HandlerFunc(n.tick))
}

// Stop ends playback and closes all connections.
func (n *Netflix) Stop() {
	n.running = false
	if n.ticker != nil {
		n.ticker.Stop()
	}
	for _, f := range n.active {
		f.Stop()
	}
	n.active = map[int]*tcp.Flow{}
}

// startChunk begins fetching the next chunk. A chunk that follows a clean,
// on-time predecessor rides the same persistent connection (no new entry in
// a packet trace); chunks after a struggle open a fresh connection, which
// is what Fig 14b counts.
func (n *Netflix) startChunk() {
	if !n.running {
		return
	}
	n.fetchTarget = int64(abrLadder[n.rateIdx] * n.chunkSeconds / 8)
	n.fetchedBytes = 0
	n.fetchStart = n.eng.Now()
	reuse := n.prevClean
	n.prevClean = false
	n.openConnection(n.fetchTarget, reuse)
}

// openConnection adds one TCP connection fetching bytes of the current
// chunk. Netflix reuses and multiplies connections; we model each fetch
// attempt as its own flow (what a packet trace shows as a new connection).
func (n *Netflix) openConnection(bytes int64, reuse bool) {
	port := n.nextPort
	n.nextPort++
	if !reuse {
		n.ConnectionsOpened++
	}
	f := tcp.NewFlow(n.eng, "netflix", n.server, n.client, port, tcp.Config{})
	n.active[port] = f
	f.OnDeliver(func(at time.Duration, sz int) {
		n.Meter.AddBytes(at, sz)
		n.fetchedBytes += int64(sz)
	})
	f.OnComplete(func() {
		f.Stop()
		delete(n.active, port)
	})
	f.Start(bytes)
	if len(n.active) > n.PeakParallel {
		n.PeakParallel = len(n.active)
	}
}

// tick runs once per second: drain the playback buffer, finish or struggle.
func (n *Netflix) tick(time.Duration) {
	if !n.running {
		return
	}
	n.bufferSeconds -= 1
	if n.bufferSeconds < 0 {
		n.bufferSeconds = 0
	}
	if n.fetchedBytes >= n.fetchTarget {
		// Chunk done: stop any straggler helper connections (their
		// remaining bytes are duplicates of data already received),
		// credit the buffer, adapt the rendition, fetch next.
		for port, f := range n.active {
			f.Stop()
			delete(n.active, port)
		}
		n.bufferSeconds += n.chunkSeconds
		elapsed := (n.eng.Now() - n.fetchStart).Seconds()
		if elapsed > 0 {
			tput := float64(n.fetchedBytes) * 8 / elapsed
			n.adapt(tput)
		}
		// An on-time single-connection chunk keeps the connection warm.
		n.prevClean = elapsed <= n.chunkSeconds+1 && !n.usedHelpers
		n.usedHelpers = false
		if n.bufferSeconds < 30 {
			n.startChunk()
		}
		return
	}
	// Mid-chunk: if starving, open parallel connections for the remainder
	// (the paper's scarcity behaviour: ~one new connection every few
	// seconds, 28 over a two-minute fight, at most 11 in parallel).
	elapsed := (n.eng.Now() - n.fetchStart).Seconds()
	if elapsed > n.chunkSeconds && n.bufferSeconds < 8 && len(n.active) < 11 &&
		n.eng.Now()-n.lastHelper >= 4*time.Second {
		remaining := n.fetchTarget - n.fetchedBytes
		if remaining > 20_000 {
			n.usedHelpers = true
			n.lastHelper = n.eng.Now()
			n.openConnection(remaining, false)
		}
	}
}

// adapt picks the next rendition from measured throughput (0.8 safety).
func (n *Netflix) adapt(tputBps float64) {
	idx := 0
	for i, r := range abrLadder {
		if 0.8*tputBps >= r {
			idx = i
		}
	}
	n.rateIdx = idx
}

// YouTube models a YouTube client: sequential ABR chunk fetches over a
// single QUIC flow.
type YouTube struct {
	eng    *sim.Engine
	client *netem.Host
	server *netem.Host
	port   int

	Meter *stats.Meter

	chunkSeconds  float64
	bufferSeconds float64
	rateIdx       int
	flow          *tcp.Flow
	ticker        *sim.Ticker
	running       bool
	fetchStart    time.Duration
	fetched       int64
	target        int64
	fetching      bool
}

// NewYouTube creates the client. Data flows server→client over QUIC.
func NewYouTube(eng *sim.Engine, client, server *netem.Host, port int) *YouTube {
	return &YouTube{
		eng: eng, client: client, server: server, port: port,
		Meter:        stats.NewMeter(time.Second),
		chunkSeconds: 5,
		rateIdx:      2,
	}
}

// Start begins playback.
func (y *YouTube) Start() {
	y.running = true
	y.fetchChunk()
	y.ticker = y.eng.EveryHandler(time.Second, sim.HandlerFunc(y.tick))
}

// Stop ends playback.
func (y *YouTube) Stop() {
	y.running = false
	if y.ticker != nil {
		y.ticker.Stop()
	}
	if y.flow != nil {
		y.flow.Stop()
	}
}

func (y *YouTube) fetchChunk() {
	if !y.running {
		return
	}
	y.target = int64(abrLadder[y.rateIdx] * y.chunkSeconds / 8)
	y.fetched = 0
	y.fetchStart = y.eng.Now()
	y.fetching = true
	y.port++
	// YouTube rides QUIC (UDP) with CUBIC-style congestion control whose
	// TCP-friendliness depends on configuration (Corbel et al.). At the
	// congestion-dynamics level that is the SACK/CUBIC loop with QUIC's
	// framing and no handshake amplification: 1350-byte datagrams (the
	// common QUIC value), ~28 B UDP/IP plus a ~12 B short header (the same
	// 40 B as TCP/IP), and 35-byte ACK frames.
	f := tcp.NewFlow(y.eng, "youtube", y.server, y.client, y.port, tcp.Config{MSS: 1350, AckSize: 35})
	y.flow = f
	f.OnDeliver(func(at time.Duration, sz int) {
		y.Meter.AddBytes(at, sz)
		y.fetched += int64(sz)
	})
	f.OnComplete(func() {
		f.Stop()
		y.fetching = false
		elapsed := (y.eng.Now() - y.fetchStart).Seconds()
		if elapsed > 0 {
			y.adapt(float64(y.fetched) * 8 / elapsed)
		}
		y.bufferSeconds += y.chunkSeconds
	})
	f.Start(y.target)
}

func (y *YouTube) tick(time.Duration) {
	if !y.running {
		return
	}
	y.bufferSeconds -= 1
	if y.bufferSeconds < 0 {
		y.bufferSeconds = 0
	}
	if !y.fetching && y.bufferSeconds < 30 {
		y.fetchChunk()
	}
}

func (y *YouTube) adapt(tputBps float64) {
	idx := 0
	for i, r := range abrLadder {
		if 0.8*tputBps >= r {
			idx = i
		}
	}
	y.rateIdx = idx
}
