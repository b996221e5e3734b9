package webrtcstats

import (
	"testing"
	"time"

	"vcalab/internal/codec"
	"vcalab/internal/stats"
)

func sample(t int, fps float64, qp float64, w int, frames int) Sample {
	return Sample{
		T:             time.Duration(t) * time.Second,
		Out:           codec.EncodeParams{FPS: fps, QP: qp, Width: w},
		In:            codec.EncodeParams{FPS: fps, QP: qp, Width: w},
		InFramesTotal: frames,
	}
}

func TestRecorderLast(t *testing.T) {
	r := NewRecorder()
	if len(r.Samples) != 0 {
		t.Error("new recorder holds samples")
	}
	r.Add(sample(1, 30, 25, 640, 30))
	r.Add(sample(2, 15, 30, 320, 45))
	if last := r.Samples[len(r.Samples)-1]; len(r.Samples) != 2 || last.Out.FPS != 15 {
		t.Errorf("Samples = %+v, want the 15 fps sample last", r.Samples)
	}
}

func TestMedianOutWindow(t *testing.T) {
	r := NewRecorder()
	for i := 1; i <= 10; i++ {
		fps := 30.0
		if i > 5 {
			fps = 10.0 // degrade in the second half
		}
		r.Add(sample(i, fps, 25, 640, i*30))
	}
	first := r.MedianOut(0, 5500*time.Millisecond)
	second := r.MedianOut(5500*time.Millisecond, 11*time.Second)
	if first.FPS != 30 || second.FPS != 10 {
		t.Errorf("window medians: first %.0f, second %.0f", first.FPS, second.FPS)
	}
	if first.Width != 640 {
		t.Errorf("width = %d", first.Width)
	}
}

func TestMedianInFPSFromFrameDeltas(t *testing.T) {
	r := NewRecorder()
	// 30 displayed frames per second for 5s, then a stall (no frames).
	frames := 0
	for i := 1; i <= 10; i++ {
		if i <= 5 {
			frames += 30
		}
		r.Add(sample(i, 30, 25, 640, frames))
	}
	active := r.MedianIn(0, 5500*time.Millisecond)
	stalled := r.MedianIn(6*time.Second, 11*time.Second)
	if active.FPS < 25 {
		t.Errorf("active FPS = %.1f, want ~30 (measured from deltas)", active.FPS)
	}
	if stalled.FPS != 0 {
		t.Errorf("stalled FPS = %.1f, want 0", stalled.FPS)
	}
}

func TestMedianEmptyWindow(t *testing.T) {
	r := NewRecorder()
	r.Add(sample(1, 30, 25, 640, 30))
	p := r.MedianOut(100*time.Second, 200*time.Second)
	if p.FPS != 0 || p.Width != 0 {
		t.Errorf("empty window medians = %+v", p)
	}
}

func TestMedianOddEven(t *testing.T) {
	if got := stats.Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := stats.Median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := stats.Median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
}
