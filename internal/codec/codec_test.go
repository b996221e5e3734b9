package codec

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"vcalab/internal/race"
)

func testLadder() Ladder {
	return Ladder{Rungs: []Rung{
		{LoBps: 0, FPS: 7, Width: 320, Height: 180, QPLo: 35, QPHi: 42},
		{LoBps: 300_000, FPS: 15, Width: 320, Height: 180, QPLo: 30, QPHi: 38},
		{LoBps: 600_000, FPS: 30, Width: 640, Height: 360, QPLo: 22, QPHi: 32},
		{LoBps: 1_200_000, FPS: 30, Width: 960, Height: 540, QPLo: 14, QPHi: 24},
	}}
}

func TestLadderRungSelection(t *testing.T) {
	l := testLadder()
	cases := []struct {
		bps   float64
		width int
		fps   float64
	}{
		{100_000, 320, 7},
		{400_000, 320, 15},
		{700_000, 640, 30},
		{5_000_000, 960, 30},
	}
	for _, c := range cases {
		p := l.ParamsFor(c.bps, nil)
		if p.Width != c.width || p.FPS != c.fps {
			t.Errorf("ParamsFor(%v) = %+v, want width %d fps %v", c.bps, p, c.width, c.fps)
		}
	}
}

func TestLadderQPMonotoneWithinRung(t *testing.T) {
	l := testLadder()
	// Within the 600k-1.2M rung, QP must fall as the rate rises.
	p1 := l.ParamsFor(650_000, nil)
	p2 := l.ParamsFor(1_100_000, nil)
	if p1.QP <= p2.QP {
		t.Errorf("QP not decreasing with rate: %.1f at 650k vs %.1f at 1.1M", p1.QP, p2.QP)
	}
	if p1.QP > 32 || p2.QP < 22 {
		t.Errorf("QP out of rung bounds: %v %v", p1.QP, p2.QP)
	}
}

func TestLadderEmpty(t *testing.T) {
	p := Ladder{}.ParamsFor(1e6, nil)
	if p.FPS == 0 || p.Width == 0 {
		t.Errorf("empty ladder fallback broken: %+v", p)
	}
}

func TestLadderJitterNeedsRng(t *testing.T) {
	l := testLadder()
	l.Jitter = 0.3
	// nil rng: must not panic, jitter ignored.
	p := l.ParamsFor(700_000, nil)
	if p.Width != 640 {
		t.Errorf("nil-rng jittered ladder = %+v", p)
	}
	// With rng, rung selection must vary across draws.
	rng := rand.New(rand.NewSource(1))
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		seen[l.ParamsFor(640_000, rng).Width] = true
	}
	if len(seen) < 2 {
		t.Error("jittered ladder never varied rung selection")
	}
}

func TestSourceDeterminismAndBounds(t *testing.T) {
	a := NewSource(rand.New(rand.NewSource(5)))
	b := NewSource(rand.New(rand.NewSource(5)))
	for i := 0; i < 1000; i++ {
		ca, cb := a.Complexity(), b.Complexity()
		if ca != cb {
			t.Fatal("source not deterministic")
		}
		if ca < 0.6 || ca > 1.6 {
			t.Fatalf("complexity %v out of bounds", ca)
		}
	}
}

func TestEncoderHitsTargetRate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e := NewEncoder("v", testLadder(), NewSource(rng), rng)
	e.SetTarget(800_000)
	var bytes int
	tick := time.Second / 30
	dur := 10 * time.Second
	for now := time.Duration(0); now < dur; now += tick {
		for _, f := range e.Tick(now) {
			bytes += f.Bytes
		}
	}
	got := float64(bytes) * 8 / dur.Seconds()
	if math.Abs(got-800_000)/800_000 > 0.15 {
		t.Errorf("encoder produced %.0f bps for 800k target", got)
	}
}

func TestEncoderFPSSkipping(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	e := NewEncoder("v", testLadder(), NewSource(rng), rng)
	e.SetTarget(400_000) // 15 fps rung
	frames := 0
	tick := time.Second / 30
	for now := time.Duration(0); now < 10*time.Second; now += tick {
		frames += len(e.Tick(now))
	}
	if frames < 140 || frames > 160 {
		t.Errorf("frames in 10s at 15fps rung = %d, want ~150", frames)
	}
}

func TestEncoderKeyframes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	e := NewEncoder("v", testLadder(), NewSource(rng), rng)
	e.SetTarget(800_000)
	e.RequestKeyframe()
	tick := time.Second / 30
	var first *Frame
	var normal []int
	for now := time.Duration(0); now < 2*time.Second; now += tick {
		for _, f := range e.Tick(now) {
			if first == nil {
				kept := *f // the encoder overwrites f on its next Tick
				first = &kept
				if !f.Keyframe {
					t.Fatal("requested keyframe not honoured")
				}
				continue
			}
			if f.Keyframe {
				t.Fatal("unexpected extra keyframe")
			}
			normal = append(normal, f.Bytes)
		}
	}
	var mean float64
	for _, b := range normal {
		mean += float64(b)
	}
	mean /= float64(len(normal))
	if float64(first.Bytes) < 2*mean {
		t.Errorf("keyframe %d bytes not >> mean %f", first.Bytes, mean)
	}
}

func TestEncoderZeroTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	e := NewEncoder("v", testLadder(), NewSource(rng), rng)
	if f := e.Tick(0); f != nil {
		t.Error("zero-target encoder emitted a frame")
	}
}

func TestSimulcastSplitsBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := NewSimulcast(testLadder(), testLadder(), 190_000, 250_000, NewSource(rng), rng)
	s.SetTarget(950_000)
	if s.low.Target() > 200_000 || s.low.Target() < 100_000 {
		t.Errorf("low target = %v", s.low.Target())
	}
	if s.high.Target() < 700_000 {
		t.Errorf("high target = %v", s.high.Target())
	}
	// Starved: only the low copy survives.
	s.SetTarget(220_000)
	if s.high.Target() != 0 {
		t.Errorf("high stream alive at 220k total: %v", s.high.Target())
	}
	if s.low.Target() == 0 {
		t.Error("low stream dead at 220k total")
	}
}

func TestSimulcastEmitsBothStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	s := NewSimulcast(testLadder(), testLadder(), 190_000, 250_000, NewSource(rng), rng)
	s.SetTarget(950_000)
	tick := time.Second / 30
	seen := map[string]int{}
	for now := time.Duration(0); now < 5*time.Second; now += tick {
		for _, f := range s.Tick(now) {
			seen[f.StreamID]++
		}
	}
	if seen["sim/low"] == 0 || seen["sim/high"] == 0 {
		t.Errorf("stream frame counts = %v", seen)
	}
}

func TestSVCLayers(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	s := NewSVC(testLadder(), []float64{0.4, 0.3, 0.3}, NewSource(rng), rng)
	s.SetTarget(780_000)
	tick := time.Second / 30
	var totalBytes int
	layerBytes := map[int]int{}
	for now := time.Duration(0); now < 10*time.Second; now += tick {
		for _, f := range s.Tick(now) {
			totalBytes += f.Bytes
			layerBytes[f.Layer] += f.Bytes
			if f.Layer > 0 && f.Keyframe {
				t.Fatal("keyframe on enhancement layer")
			}
		}
	}
	got := float64(totalBytes) * 8 / 10
	if math.Abs(got-780_000)/780_000 > 0.15 {
		t.Errorf("SVC total = %.0f bps for 780k target", got)
	}
	if len(layerBytes) != 3 {
		t.Fatalf("layers seen: %v", layerBytes)
	}
	if !(layerBytes[0] > layerBytes[1] && layerBytes[1] > 0) {
		t.Errorf("layer byte split wrong: %v", layerBytes)
	}
}

// Property: ladder parameters are piecewise-monotone — a higher target never
// yields a lower resolution or FPS.
func TestQuickLadderMonotone(t *testing.T) {
	l := testLadder()
	f := func(a, b uint32) bool {
		ra, rb := float64(a%5_000_000), float64(b%5_000_000)
		if ra > rb {
			ra, rb = rb, ra
		}
		pa, pb := l.ParamsFor(ra, nil), l.ParamsFor(rb, nil)
		return pa.Width <= pb.Width && pa.FPS <= pb.FPS
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: encoder long-run output rate tracks any sane target within 20%.
func TestQuickEncoderRateTracking(t *testing.T) {
	f := func(seed int64, rawTarget uint32) bool {
		target := float64(rawTarget%2_000_000) + 200_000
		rng := rand.New(rand.NewSource(seed))
		e := NewEncoder("v", testLadder(), NewSource(rng), rng)
		e.SetTarget(target)
		var bytes int
		tick := time.Second / 30
		for now := time.Duration(0); now < 20*time.Second; now += tick {
			for _, f := range e.Tick(now) {
				bytes += f.Bytes
			}
		}
		got := float64(bytes) * 8 / 20
		return math.Abs(got-target)/target < 0.2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestTickAllocFree pins the encoder-owned-frame contract's point: once
// an encoder has ticked, further ticks allocate nothing.
func TestTickAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates")
	}
	rng := rand.New(rand.NewSource(21))
	src := NewSource(rng)
	single := NewEncoder("video", testLadder(), src, rng)
	simul := NewSimulcast(testLadder(), testLadder(), 190_000, 150_000, src, rng)
	svc := NewSVC(testLadder(), []float64{0.4, 0.3, 0.3}, src, rng)
	simul.SetLowAlloc(120_000)
	now := time.Duration(0)
	tick := time.Second / 30
	for _, tc := range []struct {
		name string
		enc  strategy
	}{
		{"Encoder", single},
		{"Simulcast", simul},
		{"SVC", svc},
	} {
		// One tick as a sender drives it: target, frames, and once a second
		// the stats read and a keyframe request.
		n := 0
		step := func() int {
			tc.enc.SetTarget(900_000)
			if n++; n%30 == 0 {
				tc.enc.RequestKeyframe()
				_ = tc.enc.Params()
			}
			return len(tc.enc.Tick(now))
		}
		frames := step()
		allocs := testing.AllocsPerRun(300, func() {
			now += tick
			frames += step()
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per tick, want 0", tc.name, allocs)
		}
		if frames == 0 {
			t.Errorf("%s.Tick encoded no frames", tc.name)
		}
	}
}

// strategy is the method set a sender holds its encoder by, whichever of
// the three it built.
type strategy interface {
	SetTarget(bps float64)
	SetLowAlloc(bps float64)
	Tick(now time.Duration) []*Frame
	RequestKeyframe()
	Params() EncodeParams
}

// TestStrategySurface drives the three strategies through that one method
// set: a target and a tick give each its streams' frames; a keyframe
// request marks the next frame of every stream (the base layer's, for SVC);
// the reported parameters are those of the stream a receiver of the main
// video gets; and a low-copy allocation means something to a simulcast
// only, where it pins the low copy and turns the high copy off once the
// rest of the budget is under minHigh.
func TestStrategySurface(t *testing.T) {
	const target = 2_000_000 // 30 fps rung: every tick emits
	// The low copy runs at full frame rate whatever its rate (§3.1).
	lowLadder := Ladder{Rungs: []Rung{{FPS: 30, Width: 320, Height: 180, QPLo: 33, QPHi: 38}}}
	for _, tc := range []struct {
		name    string
		build   func(*Source, *rand.Rand) strategy
		streams []string // one tick's frames, in order
	}{
		{"single", func(src *Source, rng *rand.Rand) strategy {
			return NewEncoder("video", testLadder(), src, rng)
		}, []string{"video"}},
		{"simulcast", func(src *Source, rng *rand.Rand) strategy {
			return NewSimulcast(lowLadder, testLadder(), 190_000, 250_000, src, rng)
		}, []string{"sim/low", "sim/high"}},
		{"svc", func(src *Source, rng *rand.Rand) strategy {
			return NewSVC(testLadder(), []float64{0.5, 0.3, 0.2}, src, rng)
		}, []string{"svc", "svc", "svc"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(31))
			enc := tc.build(NewSource(rng), rng)
			if got := enc.Tick(0); len(got) != 0 {
				t.Fatalf("%d frames before any target", len(got))
			}
			enc.SetTarget(target)
			enc.RequestKeyframe()
			frames := enc.Tick(0)
			var got []string
			for i, f := range frames {
				got = append(got, f.StreamID)
				if want := f.Layer == 0; f.Keyframe != want {
					t.Errorf("frame %d (%s layer %d) keyframe %v after a request, want %v", i, f.StreamID, f.Layer, f.Keyframe, want)
				}
			}
			if !slices.Equal(got, tc.streams) {
				t.Fatalf("streams %v, want %v", got, tc.streams)
			}
			// The main stream's last frame carries what Params reports.
			if p := enc.Params(); p != frames[len(frames)-1].Params {
				t.Errorf("Params %+v, want the main stream's %+v", p, frames[len(frames)-1].Params)
			}

			// A low-copy allocation: 100k pinned, and 300k total leaves
			// the high copy 200k, under the 250k it needs.
			enc.SetLowAlloc(100_000)
			enc.SetTarget(300_000)
			simul, isSimul := enc.(*Simulcast)
			if !isSimul {
				enc.Tick(time.Second)
				if want := testLadder().ParamsFor(300_000, nil); enc.Params() != want {
					t.Errorf("Params %+v after a low-copy allocation, want the whole target's %+v", enc.Params(), want)
				}
				return
			}
			if simul.low.Target() != 100_000 || simul.high.Target() != 0 {
				t.Errorf("low %v high %v at 300k with 100k allocated; want 100000 and 0", simul.low.Target(), simul.high.Target())
			}
			enc.SetTarget(target)
			if simul.low.Target() != 100_000 || simul.high.Target() != target-100_000 {
				t.Errorf("low %v high %v at 2M with 100k allocated; want 100000 and the rest", simul.low.Target(), simul.high.Target())
			}
			// Outbound parameters follow the live copy.
			enc.SetTarget(300_000)
			for now := time.Second; now < 2*time.Second; now += time.Second / 30 {
				for _, f := range enc.Tick(now) {
					if f.StreamID != "sim/low" {
						t.Fatalf("%s frame with the high copy off", f.StreamID)
					}
				}
			}
			if p := enc.Params(); p != simul.low.Params() || p == (EncodeParams{}) {
				t.Errorf("Params %+v with the high copy off, want the low copy's %+v", p, simul.low.Params())
			}
			// Lifting the allocation restores the default split.
			enc.SetLowAlloc(0)
			enc.SetTarget(950_000)
			if simul.low.Target() != 190_000 || simul.high.Target() != 760_000 {
				t.Errorf("low %v high %v at 950k, allocation lifted; want 190000 and 760000", simul.low.Target(), simul.high.Target())
			}
		})
	}
}

// TestFrameValidUntilNextTick documents the ownership rule: the pointer
// Tick returns is the encoder's own frame, so a caller that keeps it
// across the next Tick sees that tick's frame.
func TestFrameValidUntilNextTick(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	e := NewEncoder("v", testLadder(), NewSource(rng), rng)
	e.SetTarget(2_000_000) // 30 fps rung: every tick emits
	tick := time.Second / 30
	first := e.Tick(0)
	if len(first) != 1 {
		t.Fatalf("%d frames on the first tick, want 1", len(first))
	}
	kept := first[0]
	seq := kept.FrameSeq
	next := e.Tick(tick)
	if len(next) != 1 || next[0] != kept {
		t.Fatal("Tick returned a fresh frame; it should reuse the encoder's")
	}
	if kept.FrameSeq != seq+1 {
		t.Errorf("kept pointer shows seq %d, want the overwrite (seq %d)", kept.FrameSeq, seq+1)
	}
}

// TestSVCLayerFramesDistinct checks that one tick's layer frames are
// separate objects carrying their own Layer, Bytes and Keyframe — they
// share storage across ticks, never within one.
func TestSVCLayerFramesDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	split := []float64{0.5, 0.3, 0.2}
	s := NewSVC(testLadder(), split, NewSource(rng), rng)
	s.SetTarget(2_000_000)
	s.RequestKeyframe()
	frames := s.Tick(0)
	if len(frames) != len(split) {
		t.Fatalf("got %d layer frames, want %d", len(frames), len(split))
	}
	total := s.frame.Bytes
	for i, f := range frames {
		for j := 0; j < i; j++ {
			if frames[j] == f {
				t.Fatalf("layers %d and %d share one Frame", j, i)
			}
		}
		if f.Layer != i || f.StreamID != "svc" || f.FrameSeq != frames[0].FrameSeq {
			t.Errorf("layer %d frame = %+v", i, *f)
		}
		if want := int(float64(total) * split[i]); f.Bytes != want {
			t.Errorf("layer %d bytes = %d, want %d", i, f.Bytes, want)
		}
		if f.Keyframe != (i == 0) {
			t.Errorf("layer %d keyframe = %v", i, f.Keyframe)
		}
	}
	first := frames[0]
	var again []*Frame // the keyframe's byte debt skips some ticks
	for now := time.Second / 30; again == nil && now < 2*time.Second; now += time.Second / 30 {
		again = s.Tick(now)
	}
	if len(again) == 0 || again[0] != first {
		t.Error("SVC.Tick should reuse its per-layer frames across ticks")
	}
}
