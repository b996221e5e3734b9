// Package codec models the video pipelines of the paper's VCAs: a synthetic
// talking-head source, rate-driven encode ladders (the FPS / quantization
// parameter / resolution adaptation measured in Fig 2), a simulcast encoder
// (Google Meet, two parallel copies at 320x180 and 640x360 — §3.1), a
// scalable-video-coding encoder (Zoom, hierarchical layers — §4.2), and a
// forward-error-correction overhead model (Zoom's server-side FEC — §3.1).
//
// The paper's pre-recorded 720p clip exists to make runs comparable; here a
// seeded AR(1) complexity process serves the same purpose.
//
// Encoder, Simulcast and SVC are the three strategies behind one method
// set — SetTarget, SetLowAlloc, Tick, RequestKeyframe, Params — so a sender
// picks one at construction and never asks again which it holds.
//
// Frame ownership: every Tick returns a list of frames held by the encoder
// that produced them (Encoder one Frame, Simulcast up to two, SVC one per
// layer). List and frames are valid until that encoder's next Tick, which
// overwrites them in place; a caller that needs a frame longer copies the
// struct. The 30 Hz tick path therefore allocates nothing.
package codec

import (
	"math"
	"math/rand"
	"time"
)

// EncodeParams are the per-second encoding observables exposed by the
// WebRTC stats API and plotted in Fig 2.
type EncodeParams struct {
	FPS    float64
	Width  int
	Height int
	QP     float64
}

// Frame is one encoded video frame (or one layer of one frame).
type Frame struct {
	StreamID  string // "video", "sim/low", "sim/high", "svc/0"...
	FrameSeq  int
	Bytes     int
	Keyframe  bool
	CaptureTS time.Duration
	Params    EncodeParams
	// Layer is the SVC layer index (0 = base); 0 for non-SVC streams.
	Layer int
}

// Source is the synthetic talking-head video source: a slowly wandering
// complexity multiplier around 1.0. Deterministic given its *rand.Rand.
type Source struct {
	rng        *rand.Rand
	complexity float64
}

// NewSource creates a source drawing from rng.
func NewSource(rng *rand.Rand) *Source {
	return &Source{rng: rng, complexity: 1}
}

// Complexity advances the AR(1) process one frame and returns the current
// multiplier, clamped to [0.6, 1.6].
func (s *Source) Complexity() float64 {
	s.complexity = 1 + 0.9*(s.complexity-1) + s.rng.NormFloat64()*0.05
	if s.complexity < 0.6 {
		s.complexity = 0.6
	}
	if s.complexity > 1.6 {
		s.complexity = 1.6
	}
	return s.complexity
}

// Rung is one operating point of an encode ladder, active for targets in
// [LoBps, next rung's LoBps). QP degrades from QPLo at the top of the range
// to QPHi at the bottom (higher QP = coarser quantization).
type Rung struct {
	LoBps  float64
	FPS    float64
	Width  int
	Height int
	QPLo   float64
	QPHi   float64
}

// Ladder maps a target bitrate to encode parameters. Rungs must be sorted
// by ascending LoBps. Jitter adds per-decision noise (the paper observes
// highly variable Teams-Chrome behaviour under identical conditions).
type Ladder struct {
	Rungs  []Rung
	Jitter float64 // stddev of multiplicative noise on the rate used for rung choice
}

// ParamsFor returns the encoding parameters for the given target bitrate.
// rng may be nil when Jitter is zero.
func (l Ladder) ParamsFor(targetBps float64, rng *rand.Rand) EncodeParams {
	if len(l.Rungs) == 0 {
		return EncodeParams{FPS: 30, Width: 640, Height: 360, QP: 30}
	}
	eff := targetBps
	if l.Jitter > 0 && rng != nil {
		eff *= math.Exp(rng.NormFloat64() * l.Jitter)
	}
	idx := 0
	for i, r := range l.Rungs {
		if eff >= r.LoBps {
			idx = i
		}
	}
	r := l.Rungs[idx]
	hi := 2 * r.LoBps
	if idx+1 < len(l.Rungs) {
		hi = l.Rungs[idx+1].LoBps
	}
	// Log-linear QP interpolation across the rung's rate range (linear
	// for the bottom rung, whose lower edge is zero).
	frac := 0.0
	switch {
	case r.LoBps <= 0:
		if hi > 0 {
			frac = eff / hi
		}
	case hi > r.LoBps && eff > r.LoBps:
		frac = math.Log(eff/r.LoBps) / math.Log(hi/r.LoBps)
	}
	if frac > 1 {
		frac = 1
	}
	if frac < 0 {
		frac = 0
	}
	return EncodeParams{
		FPS:    r.FPS,
		Width:  r.Width,
		Height: r.Height,
		QP:     r.QPHi + (r.QPLo-r.QPHi)*frac,
	}
}

// Encoder produces frames for a single stream at a rate-dependent FPS.
// Drive it with Tick at the source frame interval (TickHz); it emits or
// skips frames to honour the ladder's FPS.
type Encoder struct {
	StreamID string
	Ladder   Ladder
	// TickHz is the capture rate the encoder is driven at (default 30).
	TickHz float64
	// KeyInterval inserts a periodic keyframe (0 = only on request).
	KeyInterval time.Duration
	// KeyframeScale is the size multiplier for keyframes (default 4).
	KeyframeScale float64

	src    *Source
	rng    *rand.Rand
	target float64

	frameAcc   float64
	frameSeq   int
	lastKey    time.Duration
	keyPending bool
	params     EncodeParams
	// byteDebt tracks bytes emitted beyond budget (keyframes); the
	// encoder repays it by skipping frames, as real rate control does.
	byteDebt float64

	frame Frame     // the frame Tick returns, overwritten by the next Tick
	out   [1]*Frame // backs the list Tick returns
}

// NewEncoder creates an encoder. src may be shared across encoders
// (simulcast copies see the same scene).
func NewEncoder(streamID string, ladder Ladder, src *Source, rng *rand.Rand) *Encoder {
	return &Encoder{
		StreamID:      streamID,
		Ladder:        ladder,
		TickHz:        30,
		KeyframeScale: 4,
		src:           src,
		rng:           rng,
	}
}

// SetTarget sets the encoder's target bitrate; parameters update on the
// next frame decision.
func (e *Encoder) SetTarget(bps float64) { e.target = bps }

// Target returns the current target bitrate.
func (e *Encoder) Target() float64 { return e.target }

// Params returns the most recently used encode parameters.
func (e *Encoder) Params() EncodeParams { return e.params }

// RequestKeyframe makes the next emitted frame a keyframe (FIR handling).
func (e *Encoder) RequestKeyframe() { e.keyPending = true }

// SetLowAlloc does nothing: only a simulcast has a low copy to resize.
func (e *Encoder) SetLowAlloc(float64) {}

// Tick advances one capture interval and returns the encoded frame as a
// one-entry list, or nil if this tick is skipped (FPS below the capture
// rate).
func (e *Encoder) Tick(now time.Duration) []*Frame {
	f := e.tick(now)
	if f == nil {
		return nil
	}
	e.out[0] = f
	return e.out[:]
}

// tick is Tick for the strategies built on an Encoder: the frame itself.
func (e *Encoder) tick(now time.Duration) *Frame {
	if e.target <= 0 {
		return nil
	}
	e.params = e.Ladder.ParamsFor(e.target, e.rng)
	e.frameAcc += e.params.FPS / e.TickHz
	if e.frameAcc < 1 {
		return nil
	}
	e.frameAcc -= 1

	key := e.keyPending
	// Repay keyframe byte debt by skipping non-key frames.
	if !key && e.byteDebt > 0 {
		e.byteDebt -= e.target / e.params.FPS / 8
		return nil
	}
	if e.KeyInterval > 0 && now-e.lastKey >= e.KeyInterval {
		key = true
	}
	complexity := e.src.Complexity()
	budget := e.target / e.params.FPS / 8 // bytes per frame
	noise := math.Exp(e.rng.NormFloat64() * 0.12)
	bytes := budget * complexity * noise
	if key {
		bytes *= e.KeyframeScale
		// An intra frame's size is resolution-bound: it cannot compress
		// below ~0.30 bits/pixel — at low bitrates and high resolutions
		// (Teams' width bug, Fig 2f) the keyframe alone can exceed a
		// shaped link's whole queue, igniting the paper's FIR storms
		// (Fig 3b) — nor does it need more than ~0.50 bits/pixel.
		pixels := float64(e.params.Width * e.params.Height)
		if floor := pixels * 0.30 / 8; bytes < floor {
			bytes = floor
		}
		if max := pixels * 0.50 / 8; bytes > max {
			bytes = max
		}
		e.lastKey = now
		e.keyPending = false
		over := bytes - budget
		if over > 0 {
			e.byteDebt += over
			// Cap the debt at half a second of budget so video resumes.
			if max := e.target / 8 * 0.5; e.byteDebt > max {
				e.byteDebt = max
			}
		}
	}
	// A frame of W x H pixels cannot compress below ~0.045 bits/pixel
	// even at the coarsest quantization; this floor is what overloads a
	// constrained uplink when a VCA insists on a high resolution
	// (Teams' width bug, Fig 2f / Fig 3b).
	if floor := float64(e.params.Width*e.params.Height) * 0.045 / 8; bytes < floor {
		bytes = floor
	}
	if bytes < 50 {
		bytes = 50
	}
	e.frameSeq++
	e.frame = Frame{
		StreamID:  e.StreamID,
		FrameSeq:  e.frameSeq,
		Bytes:     int(bytes),
		Keyframe:  key,
		CaptureTS: now,
		Params:    e.params,
	}
	return &e.frame
}

// Simulcast is Google Meet's encoding strategy: the client encodes the same
// scene at two quality levels and uploads both; the SFU forwards one per
// receiver (§3.1: streams observed at 320x180 and 640x360).
type Simulcast struct {
	Low, High *Encoder
	// LowCapBps caps the low stream (the paper's low copy runs ~0.19 Mbps).
	LowCapBps float64
	// MinHighBps disables the high stream when the remaining budget is
	// below this (below it Meet sends only the low copy).
	MinHighBps float64

	lowAlloc float64   // SetLowAlloc's rate for the low copy (0 = default split)
	out      [2]*Frame // backs the list Tick returns
}

// NewSimulcast builds the two encoders sharing one source.
func NewSimulcast(low, high Ladder, lowCap, minHigh float64, src *Source, rng *rand.Rand) *Simulcast {
	return &Simulcast{
		Low:       NewEncoder("sim/low", low, src, rng),
		High:      NewEncoder("sim/high", high, src, rng),
		LowCapBps: lowCap, MinHighBps: minHigh,
	}
}

// SetLowAlloc pins the low copy at bps — the SFU's request when some
// receiver cannot sustain the default low copy (§3.1 downlink floor) — until
// called again with 0. It takes effect at the next SetTarget.
func (s *Simulcast) SetLowAlloc(bps float64) { s.lowAlloc = bps }

// SetTarget splits the total uplink video budget across the two copies.
func (s *Simulcast) SetTarget(totalBps float64) {
	if s.lowAlloc > 0 {
		high := totalBps - s.lowAlloc
		if high < s.MinHighBps {
			high = 0
		}
		s.Low.SetTarget(s.lowAlloc)
		s.High.SetTarget(math.Max(0, high))
		return
	}
	low := math.Min(s.LowCapBps, 0.25*totalBps)
	high := totalBps - low
	if high < s.MinHighBps {
		// Not enough for the high copy: all budget to the low copy.
		s.High.SetTarget(0)
		s.Low.SetTarget(math.Min(totalBps, s.LowCapBps*1.3))
		return
	}
	s.Low.SetTarget(low)
	s.High.SetTarget(high)
}

// RequestKeyframe makes the next frame of both copies a keyframe.
func (s *Simulcast) RequestKeyframe() {
	s.Low.RequestKeyframe()
	s.High.RequestKeyframe()
}

// Params returns the encode parameters of the copy a receiver of the main
// stream gets: the high copy while it is on, the low copy otherwise.
func (s *Simulcast) Params() EncodeParams {
	if s.High.Target() > 0 {
		return s.High.Params()
	}
	return s.Low.Params()
}

// Tick produces this tick's frames for both copies, low copy first.
func (s *Simulcast) Tick(now time.Duration) []*Frame {
	out := s.out[:0]
	if f := s.Low.tick(now); f != nil {
		out = append(out, f)
	}
	if f := s.High.tick(now); f != nil {
		out = append(out, f)
	}
	return out
}

// SVC is Zoom's encoding strategy (§4.2): one hierarchical encoding whose
// layers sum to the target; the SFU forwards a layer subset per receiver
// and can re-add layers instantly when conditions improve. It is an Encoder
// — target, parameters, keyframe requests and key interval are the embedded
// one's — whose every frame Tick splits into layers.
type SVC struct {
	*Encoder
	// Split gives each layer's share of the frame bytes (sums to 1).
	Split []float64

	layers []Frame  // one frame per layer, rewritten every Tick
	out    []*Frame // the list Tick returns: pointers into layers
}

// NewSVC creates an SVC encoder with the given per-layer byte split.
func NewSVC(ladder Ladder, split []float64, src *Source, rng *rand.Rand) *SVC {
	s := &SVC{Encoder: NewEncoder("svc", ladder, src, rng), Split: split}
	s.sizeLayers()
	return s
}

// sizeLayers (re)builds the per-layer frame storage to match Split.
func (s *SVC) sizeLayers() {
	s.layers = make([]Frame, len(s.Split))
	s.out = make([]*Frame, len(s.Split))
	for i := range s.layers {
		s.out[i] = &s.layers[i]
	}
}

// Tick returns one frame per layer, base layer first (or nil on skipped
// ticks).
func (s *SVC) Tick(now time.Duration) []*Frame {
	f := s.tick(now)
	if f == nil {
		return nil
	}
	if len(s.layers) != len(s.Split) {
		s.sizeLayers() // Split was reassigned after construction
	}
	for i, share := range s.Split {
		lf := &s.layers[i]
		*lf = *f
		lf.Layer = i
		lf.Bytes = int(float64(f.Bytes) * share)
		if lf.Bytes < 20 {
			lf.Bytes = 20
		}
		// Only the base layer carries the keyframe weight.
		lf.Keyframe = f.Keyframe && i == 0
	}
	return s.out
}
