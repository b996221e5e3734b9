// Heterogeneous last-mile link models.
//
// The paper measures VCAs over a fixed-rate token bucket, but its §8
// future work points at the access networks real calls ride: WiFi with
// bursty, correlated loss; home routers with buffers deep enough that
// loss-based senders see seconds of queueing first. This file models
// those two regimes on top of the base Link:
//
//   - GilbertElliott: a two-state Markov loss process installed with
//     Link.SetLossModel — loss arrives in bursts whose length and density
//     are set by the chain's transition probabilities, not independently
//     per packet.
//   - CoDel + ApplyBloat: a deep drop-tail queue with optional CoDel-style
//     AQM consulted at dequeue.
//
// A cellular last mile, whose capacity steps through a drive trace and
// blanks out across handovers, needs no model here: a scenario timeline
// steps the rate and pauses the link (Link.SetPaused).
//
// Every model owns its randomness (a splitmix-mixed seed feeding a private
// source), so installing one never perturbs the engine's shared stream —
// experiments that do not use the models stay byte-identical, and the ones
// that do are deterministic per (model seed, engine seed) at any trial
// parallelism.
package netem

import (
	"math"
	"math/rand"
	"time"
)

// LossModel is a stateful per-packet loss process installed on a link with
// SetLossModel. Lose is called once per packet offered to the link, in
// arrival order; implementations must be deterministic given their
// construction parameters (own their randomness) so link behaviour is
// reproducible per seed.
type LossModel interface {
	Lose() bool
}

// mix64 is splitmix64's finalizer: adjacent seeds map to decorrelated
// source seeds, so seeding models 1,2,3,... is as good as random seeds.
func mix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

func newModelRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(int64(mix64(uint64(seed)))))
}

// GEConfig parameterizes the Gilbert–Elliott two-state loss chain. The
// chain steps once per offered packet: in the Good state it crosses to Bad
// with probability P, in Bad it returns to Good with probability R; the
// packet is then lost with the current state's loss probability. Mean Bad
// residence is 1/R packets and the stationary Bad share is P/(P+R), which
// makes regimes easy to dial in (see WiFiBursty).
type GEConfig struct {
	P        float64 // per-packet Good→Bad transition probability
	R        float64 // per-packet Bad→Good transition probability
	LossGood float64 // loss probability in Good (typically ~0)
	LossBad  float64 // loss probability in Bad (typically ~1)
}

// stationaryLoss returns the chain's long-run loss rate — the yardstick
// the statistical property tests hold empirical drops against.
func (c GEConfig) stationaryLoss() float64 {
	if c.P+c.R <= 0 {
		return c.LossGood
	}
	pb := c.P / (c.P + c.R)
	return (1-pb)*c.LossGood + pb*c.LossBad
}

// WiFiBursty returns a GE parameterization hitting a target overall loss
// rate with a target mean burst length (packets), using the classic
// LossBad=1, LossGood=0 simplification: bursts of meanBurst consecutive
// losses arriving often enough to average lossRate. The chain can reach
// lossRate only when lossRate <= meanBurst/(meanBurst+1); above that P
// exceeds 1 (the chain then loses less than asked), which
// scenario.Scenario.Validate rejects.
func WiFiBursty(lossRate, meanBurst float64) GEConfig {
	if meanBurst < 1 {
		meanBurst = 1
	}
	if lossRate >= 1 {
		lossRate = 0.99
	}
	r := 1 / meanBurst
	return GEConfig{P: r * lossRate / (1 - lossRate), R: r, LossBad: 1}
}

// GilbertElliott is a LossModel running the GE chain. Create with
// NewGilbertElliott; counters are exported for measurement code.
type GilbertElliott struct {
	cfg GEConfig
	rng *rand.Rand
	bad bool

	// Offered and Losses count packets seen and packets lost.
	Offered, Losses uint64
	// BadOffered counts the packets offered while the chain sat in the
	// Bad state — BadOffered/Offered is the burst-state occupancy that
	// the metrics sampler reports.
	BadOffered uint64
}

// NewGilbertElliott builds a GE loss model with its own seeded source.
func NewGilbertElliott(seed int64, cfg GEConfig) *GilbertElliott {
	return &GilbertElliott{cfg: cfg, rng: newModelRand(seed)}
}

// Lose implements LossModel: advance the chain one packet, then sample
// loss in the resulting state. Degenerate loss probabilities (0 or 1)
// skip the sample draw, so the chain's random stream stays aligned with
// the state sequence regardless of the loss parameters.
func (g *GilbertElliott) Lose() bool {
	if g.bad {
		if g.rng.Float64() < g.cfg.R {
			g.bad = false
		}
	} else {
		if g.rng.Float64() < g.cfg.P {
			g.bad = true
		}
	}
	h := g.cfg.LossGood
	if g.bad {
		h = g.cfg.LossBad
	}
	var lost bool
	switch {
	case h >= 1:
		lost = true
	case h <= 0:
		lost = false
	default:
		lost = g.rng.Float64() < h
	}
	g.Offered++
	if g.bad {
		g.BadOffered++
	}
	if lost {
		g.Losses++
	}
	return lost
}

// CoDel's RFC 8289 parameters: the target sojourn and the interval.
const (
	codelTarget   = 5 * time.Millisecond
	codelInterval = 100 * time.Millisecond
)

// CoDel is a deterministic CoDel-style AQM: when the head packet's queue
// sojourn has stayed above the 5 ms target for a full 100 ms interval, it
// enters the dropping state and head-drops at a frequency growing with the
// square root of the drop count (the RFC 8289 control law), until a
// sojourn back under the target resets it. No randomness is involved, so
// AQM behaviour is a pure function of the packet arrival pattern. The
// zero value is ready; install one with Link.SetAQM.
type CoDel struct {
	firstAbove time.Duration // deadline to leave the above-target grace period; 0 = not above
	dropNext   time.Duration
	dropping   bool
	count      int

	// Drops counts head drops decided by the control law.
	Drops uint64
}

// dropOnDequeue is the control law, called by the link for the head packet
// when it is dequeued for serialization.
func (c *CoDel) dropOnDequeue(now time.Duration, sojourn time.Duration) bool {
	if sojourn < codelTarget {
		c.firstAbove = 0
		c.dropping = false
		c.count = 0
		return false
	}
	if c.firstAbove == 0 {
		c.firstAbove = now + codelInterval
		return false
	}
	if c.dropping {
		if now >= c.dropNext {
			c.count++
			c.Drops++
			c.dropNext = now + c.controlDelay()
			return true
		}
		return false
	}
	if now >= c.firstAbove {
		c.dropping = true
		c.count = 1
		c.Drops++
		c.dropNext = now + c.controlDelay()
		return true
	}
	return false
}

func (c *CoDel) controlDelay() time.Duration {
	return time.Duration(float64(codelInterval) / math.Sqrt(float64(c.count)))
}

// BloatConfig describes a bufferbloated access hop: a drop-tail queue
// Depth deep in time at the link's current rate (far beyond the 200 ms
// default a token bucket carries), with optional CoDel AQM in front of
// the serializer.
type BloatConfig struct {
	// Depth is the queue depth in time at the link rate; default 2 s —
	// the DSL/cable modem buffers the bufferbloat literature measured.
	Depth time.Duration
	// AQM enables CoDel on the deep queue.
	AQM bool
}

// ApplyBloat reconfigures l as a bufferbloated hop: the queue bound grows
// to cfg.Depth at the link's current rate and CoDel is installed or
// removed per cfg.AQM. The link must be rate-limited — on an
// unconstrained link there is no queue to bloat, so the call is a no-op.
func ApplyBloat(l *Link, cfg BloatConfig) {
	if l.Rate() <= 0 {
		return
	}
	if cfg.Depth == 0 {
		cfg.Depth = 2 * time.Second
	}
	l.SetQueueBytes(queueBytes(l.Rate(), cfg.Depth))
	if cfg.AQM {
		l.SetAQM(&CoDel{})
	} else {
		l.SetAQM(nil)
	}
}
