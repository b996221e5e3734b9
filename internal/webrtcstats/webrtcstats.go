// Package webrtcstats emulates the per-second statistics surface the paper
// reads from Chrome's WebRTC getStats() API (§3.2): encode parameters of
// the outbound stream (FPS, quantization parameter, frame width), decode
// state of the inbound stream, cumulative freeze time and FIR counts.
//
// The paper notes Zoom-Chrome exposes no video stats (DataChannels); vcalab
// records samples for the client that subscribed (vca.Client.RecordStats: the
// paper's C1) and the experiment layer decides which profiles to report.
package webrtcstats

import (
	"time"

	"vcalab/internal/codec"
	"vcalab/internal/stats"
)

// Sample is one per-second stats snapshot.
type Sample struct {
	T time.Duration // time since call start

	// Outbound (sender-side outbound-rtp).
	Out          codec.EncodeParams
	OutTargetBps float64
	// FIRCount is the cumulative count of FIRs received for the outbound
	// video (Fig 3b's metric).
	FIRCount int

	// Inbound (receiver-side inbound-rtp), aggregated across remotes.
	In            codec.EncodeParams
	InFramesTotal int           // cumulative displayed frames
	FreezeTime    time.Duration // cumulative freeze duration (paper formula)
}

// Recorder accumulates samples for one client over one call.
type Recorder struct {
	Samples []Sample
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Add appends a sample.
func (r *Recorder) Add(s Sample) { r.Samples = append(r.Samples, s) }

// MedianOut returns the median outbound encode parameters over samples with
// T in [from, to) — the aggregation behind Fig 2.
func (r *Recorder) MedianOut(from, to time.Duration) codec.EncodeParams {
	var fps, qp, w []float64
	for _, s := range r.Samples {
		if s.T < from || s.T >= to {
			continue
		}
		fps = append(fps, s.Out.FPS)
		qp = append(qp, s.Out.QP)
		w = append(w, float64(s.Out.Width))
	}
	return codec.EncodeParams{
		FPS:   stats.Median(fps),
		QP:    stats.Median(qp),
		Width: int(stats.Median(w)),
	}
}

// MedianIn returns the median inbound encode parameters over [from, to),
// with FPS measured from displayed-frame deltas rather than the encoder's
// nominal rate (what a receiver-side stats reader sees).
func (r *Recorder) MedianIn(from, to time.Duration) codec.EncodeParams {
	var fps, qp, w []float64
	var prev *Sample
	for i := range r.Samples {
		s := &r.Samples[i]
		if s.T < from || s.T >= to {
			prev = s
			continue
		}
		if prev != nil {
			dt := (s.T - prev.T).Seconds()
			if dt > 0 {
				fps = append(fps, float64(s.InFramesTotal-prev.InFramesTotal)/dt)
			}
		}
		qp = append(qp, s.In.QP)
		w = append(w, float64(s.In.Width))
		prev = s
	}
	return codec.EncodeParams{
		FPS:   stats.Median(fps),
		QP:    stats.Median(qp),
		Width: int(stats.Median(w)),
	}
}
