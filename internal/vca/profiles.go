package vca

import (
	"time"

	"vcalab/internal/cc"
	"vcalab/internal/codec"
)

// MediaMode is the encoding strategy (§2.1, §4.2) — the one selector both
// halves of a call share: the client builds its encoder from it, the SFU's
// forwarder selects a simulcast copy, strips SVC layers, or thins a single
// stream by it. Nothing else in a Profile names a VCA family.
type MediaMode int

// Encoding strategies.
const (
	ModeSingle    MediaMode = iota // one stream (Teams)
	ModeSimulcast                  // two parallel copies (Meet)
	ModeSVC                        // hierarchical layers (Zoom)
)

// Tier is a layout-driven quality request (§6): how big the tile showing a
// participant is determines the resolution the sender is asked for.
type Tier int

// Quality tiers, ordered.
const (
	TierThumb Tier = iota
	TierLow
	TierMed
	TierHigh
	TierSpeaker
)

// Profile is the complete calibration of one VCA client+server pair.
// Every constant cites the paper section it reproduces; changing a profile
// is the supported way to model a new VCA (see DESIGN.md §6).
type Profile struct {
	Name string

	// NewClientCC builds the uplink congestion controller, given the
	// nominal video rate the current call modality asks for.
	NewClientCC func(nominalBps float64) cc.Controller

	// NewServerCC builds the per-receiver downlink controller at the SFU.
	// Nil means the server is a pure relay (Teams, §4.2) and the far
	// sender governs the downlink end-to-end.
	NewServerCC func() cc.Controller

	// MediaMode selects the encoding strategy; the fields below
	// configure it.
	MediaMode MediaMode
	Ladder    codec.Ladder // main video ladder (Fig 2 shapes)
	LowLadder codec.Ladder // Meet's low simulcast copy
	SVCSplit  []float64    // Zoom's per-layer byte shares

	// SimLowCapBps / SimMinHighBps configure Meet's simulcast split
	// (§3.1: low copy ≈ 0.19 Mbps; high copy off when starved).
	SimLowCapBps  float64
	SimMinHighBps float64

	// ServerFECOverhead is the FEC fraction the relay adds when
	// forwarding (§3.1: Zoom downstream ≈ 1.2x upstream).
	ServerFECOverhead float64

	// TierBps maps layout tiers to video target rates (§6).
	TierBps map[Tier]float64

	// GalleryTier returns the tier a sender is asked for in an n-party
	// gallery call (§6.1 tile-shrink behaviour).
	GalleryTier func(n int) Tier

	// VisibleTiles is how many remote participants a receiver displays
	// (§6.1: Teams has a fixed 4-tile layout on Linux).
	VisibleTiles func(n int) int

	// ForwardFactor is the fraction of frames the relay forwards per
	// displayed stream in an n-party call (Teams' unexplained large-call
	// downstream reduction, §6.1; 1 elsewhere).
	ForwardFactor func(n int) float64

	// SpeakerUplinkBps overrides the pinned sender's video target in
	// speaker mode; nil uses TierBps[TierSpeaker]. Teams' anomalous
	// participant-scaling uplink (§6.2: 1.25→2.9 Mbps) lives here.
	SpeakerUplinkBps func(n int) float64

	// StallEvery/StallDur model random encoder pipeline stalls. The
	// paper observes Teams-Chrome freezing 3.6%% of the time even on an
	// unconstrained link (§3.2, "implementation problems or poor design
	// choices"); these stalls reproduce that.
	StallEvery, StallDur time.Duration
}

// Meet returns the Google Meet profile (Chrome client; Meet is native in
// the browser, §2.2).
func Meet() *Profile {
	p := &Profile{
		Name:          "meet",
		MediaMode:     ModeSimulcast,
		SimLowCapBps:  190_000,
		SimMinHighBps: 260_000,
		// High-copy ladder (drives Fig 2d-f): QP-first degradation from
		// 1.0 down to ~0.5 Mbps, then width+FPS reduction at 0.4 and below.
		Ladder: codec.Ladder{Rungs: []codec.Rung{
			{LoBps: 0, FPS: 8, Width: 320, Height: 180, QPLo: 40, QPHi: 42},
			{LoBps: 150_000, FPS: 24, Width: 320, Height: 180, QPLo: 33, QPHi: 40},
			{LoBps: 430_000, FPS: 30, Width: 640, Height: 360, QPLo: 22, QPHi: 37},
		}},
		// Low copy: 320x180 at full frame rate (§3.1/§3.2: the low
		// simulcast stream keeps ~30 FPS even below 0.5 Mbps).
		LowLadder: codec.Ladder{Rungs: []codec.Rung{
			{LoBps: 0, FPS: 30, Width: 320, Height: 180, QPLo: 33, QPHi: 33},
			{LoBps: 170_000, FPS: 30, Width: 320, Height: 180, QPLo: 38, QPHi: 38},
		}},
		TierBps: map[Tier]float64{
			TierThumb:   90_000,
			TierLow:     190_000,
			TierMed:     560_000,
			TierHigh:    720_000, // high copy; with the 0.19 low copy, 0.95 up with audio (§3.1, Table 2)
			TierSpeaker: 960_000,
		},
	}
	p.NewClientCC = func(nominal float64) cc.Controller {
		return cc.NewGCC(cc.DefaultGCCConfig(cc.Range{
			// Fig 1a: Meet still sends ~0.27 Mbps through a 0.3 Mbps
			// uplink — its video floor sits near 230 kbps.
			MinBps: 230_000, MaxBps: 1.05 * nominal, StartBps: 0.7 * nominal,
		}))
	}
	p.NewServerCC = func() cc.Controller {
		return cc.NewGCC(cc.ServerGCCConfig(cc.Range{
			MinBps: 100_000, MaxBps: 10e6, StartBps: 1e6,
		}))
	}
	p.GalleryTier = func(n int) Tier {
		switch {
		case n <= 2:
			return TierHigh
		case n <= 6:
			return TierMed
		default:
			return TierLow // §6.1: Meet uplink collapses at n = 7
		}
	}
	p.VisibleTiles = func(n int) int { return n - 1 }
	p.ForwardFactor = func(int) float64 { return 1 }
	return p
}

// Zoom returns the Zoom native-client profile.
func Zoom() *Profile {
	p := &Profile{
		Name:      "zoom",
		MediaMode: ModeSVC,
		SVCSplit:  []float64{0.40, 0.30, 0.30},
		// §3.1: downstream ≈ 1.2x upstream via server-generated FEC.
		ServerFECOverhead: 0.18,
		Ladder: codec.Ladder{Rungs: []codec.Rung{
			{LoBps: 0, FPS: 12, Width: 320, Height: 180, QPLo: 36, QPHi: 42},
			{LoBps: 300_000, FPS: 22, Width: 480, Height: 270, QPLo: 30, QPHi: 38},
			{LoBps: 600_000, FPS: 30, Width: 640, Height: 360, QPLo: 23, QPHi: 32},
			{LoBps: 1_000_000, FPS: 30, Width: 960, Height: 540, QPLo: 17, QPHi: 26},
		}},
		TierBps: map[Tier]float64{
			TierThumb:   90_000,
			TierLow:     360_000,
			TierMed:     560_000,
			TierHigh:    740_000, // Table 2: 0.78 Mbps up with audio
			TierSpeaker: 960_000,
		},
	}
	p.NewClientCC = func(nominal float64) cc.Controller {
		return cc.NewZoomCC(cc.DefaultZoomConfig(cc.Range{
			MinBps: 200_000, MaxBps: 1.75 * nominal, StartBps: nominal,
		}, nominal))
	}
	p.NewServerCC = func() cc.Controller {
		// Loss-based GCC with recovery probing, plus Zoom's own loss
		// tolerance is reflected in the higher LossHigh threshold: the
		// relay keeps layers flowing under loss its FEC can absorb.
		cfg := cc.ServerGCCConfig(cc.Range{MinBps: 150_000, MaxBps: 10e6, StartBps: 1e6})
		cfg.LossHigh = 0.22
		return cc.NewGCC(cfg)
	}
	p.GalleryTier = func(n int) Tier {
		if n <= 4 {
			return TierHigh // §6.1: 2x2 grid up to 4 participants
		}
		return TierLow // 5th participant shrinks every tile
	}
	p.VisibleTiles = func(n int) int { return n - 1 }
	p.ForwardFactor = func(int) float64 { return 1 }
	return p
}

// Teams returns the Microsoft Teams native-client profile.
func Teams() *Profile {
	p := &Profile{
		Name:      "teams",
		MediaMode: ModeSingle,
		// Fig 2 (Teams-Chrome shares the shape): all three parameters
		// degrade together; the bottom rung reproduces the paper's
		// width-increase bug at 0.3 Mbps (Fig 2f) — 640 wide below the
		// 480-wide rung above it.
		Ladder: codec.Ladder{
			Rungs: []codec.Rung{
				{LoBps: 0, FPS: 13, Width: 640, Height: 360, QPLo: 38, QPHi: 44},
				{LoBps: 350_000, FPS: 18, Width: 480, Height: 270, QPLo: 32, QPHi: 40},
				{LoBps: 700_000, FPS: 25, Width: 640, Height: 360, QPLo: 26, QPHi: 34},
				{LoBps: 1_100_000, FPS: 30, Width: 960, Height: 540, QPLo: 18, QPHi: 28},
			},
			Jitter: 0.10,
		},
		TierBps: map[Tier]float64{
			TierThumb:   90_000,
			TierLow:     360_000,
			TierMed:     700_000,
			TierHigh:    1_400_000, // §3.1: Teams-native 1.44 Mbps at 10 Mbps uplink
			TierSpeaker: 1_250_000,
		},
	}
	p.NewClientCC = func(nominal float64) cc.Controller {
		return cc.NewTeamsCC(cc.DefaultTeamsConfig(cc.Range{
			// Low floor: §5.1/Fig 10b shows Teams yielding to ~0.1 Mbps
			// (20%% of a 0.5 Mbps link) under competition.
			MinBps: 100_000, MaxBps: 1.04 * nominal, StartBps: 0.5 * nominal,
		}))
	}
	p.NewServerCC = nil // pure relay: §4.2 "this server acts only as a relay"
	p.GalleryTier = func(n int) Tier { return TierHigh }
	p.VisibleTiles = func(n int) int {
		if n-1 < 4 {
			return n - 1
		}
		return 4 // fixed 4-tile layout on Linux (§6.1)
	}
	p.ForwardFactor = func(n int) float64 {
		// §6.1: downstream rises to n=5 then falls; uplink is flat. The
		// paper could not explain the fall; we model it as relay-side
		// temporal thinning that intensifies in large calls.
		switch {
		case n <= 2:
			return 1
		case n <= 5:
			return 0.55
		default:
			return 0.35
		}
	}
	p.SpeakerUplinkBps = func(n int) float64 {
		// §6.2: pinned Teams uplink grows from 1.25 Mbps (n=3) to
		// 2.9 Mbps (n=8), all to a single server — unexplained in the
		// paper; reproduced as a linear participant scaling.
		bps := 1_250_000 + 330_000*float64(n-3)
		if bps < 1_250_000 {
			bps = 1_250_000
		}
		return bps
	}
	return p
}

// TeamsChrome returns the Teams browser-client profile (§3.1, Fig 1c: the
// Chrome client uses markedly less of a constrained uplink than native —
// 0.61 vs 0.84 Mbps at 1 Mbps — and §3.2/Fig 2-3: noisier encoding, freezes
// even unconstrained).
func TeamsChrome() *Profile {
	p := Teams()
	p.Name = "teams-chrome"
	// §3.2/Fig 3a: Teams-Chrome freezes ~3.6%% of the time even
	// unconstrained; modeled as random encoder stalls.
	p.StallEvery = 8 * time.Second
	p.StallDur = 300 * time.Millisecond
	p.Ladder.Jitter = 0.28 // high across-run variance (Fig 2 bands)
	p.TierBps[TierHigh] = 1_150_000
	p.NewClientCC = func(nominal float64) cc.Controller {
		cfg := cc.DefaultTeamsConfig(cc.Range{
			MinBps: 100_000, MaxBps: 1.04 * nominal, StartBps: 0.4 * nominal,
		})
		// Browser client: even more skittish and slower to recover.
		cfg.DelayBackoff = 40 * time.Millisecond
		cfg.LossBackoff = 0.015
		cfg.BackoffFactor = 0.7
		cfg.RampInitBpsPerSec = 8_000
		cfg.RampMaxBpsPerSec = 160_000
		return cc.NewTeamsCC(cfg)
	}
	return p
}

// ZoomChrome returns the Zoom browser-client profile (Fig 1c: utilization
// close to native; §3.2: uses DataChannels, so no WebRTC video stats).
func ZoomChrome() *Profile {
	p := Zoom()
	p.Name = "zoom-chrome"
	p.NewClientCC = func(nominal float64) cc.Controller {
		return cc.NewZoomCC(cc.DefaultZoomConfig(cc.Range{
			MinBps: 100_000, MaxBps: 1.6 * nominal, StartBps: nominal,
		}, nominal))
	}
	return p
}

// Profiles returns all five client profiles keyed by name.
func Profiles() map[string]*Profile {
	out := map[string]*Profile{}
	for _, p := range []*Profile{Meet(), Zoom(), Teams(), TeamsChrome(), ZoomChrome()} {
		out[p.Name] = p
	}
	return out
}
