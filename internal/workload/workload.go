// Package workload generates synthetic session workloads: Poisson arrival
// processes with time-varying rates (flash crowds, diurnal cycles), Zipf
// content popularity, and client-population mixes across ISPs.
//
// This substitutes for the production traces the paper's scenarios come from
// ("a large-scale application delivery optimization service" — Conviva):
// control-plane behaviour depends on arrival dynamics and the client/content
// mix, which these generators parameterize, not on real user identity.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// RateFunc gives the instantaneous arrival rate in sessions per second at
// virtual time t.
type RateFunc func(t time.Duration) float64

// Constant returns a fixed-rate function.
func Constant(perSecond float64) RateFunc {
	return func(time.Duration) float64 { return perSecond }
}

// FlashCrowd describes a load spike: base rate, then a linear ramp to peak,
// a hold at peak, and a linear ramp back down. This is the Figure 3
// scenario: a sudden crowd overwhelming an ISP's access capacity.
type FlashCrowd struct {
	Base, Peak         float64 // sessions/s
	Start              time.Duration
	RampUp, Hold, Down time.Duration
}

// Rate returns the RateFunc for the flash crowd profile.
func (f FlashCrowd) Rate() RateFunc {
	return func(t time.Duration) float64 {
		switch {
		case t < f.Start:
			return f.Base
		case t < f.Start+f.RampUp:
			frac := float64(t-f.Start) / float64(f.RampUp)
			return f.Base + frac*(f.Peak-f.Base)
		case t < f.Start+f.RampUp+f.Hold:
			return f.Peak
		case t < f.Start+f.RampUp+f.Hold+f.Down:
			frac := float64(t-f.Start-f.RampUp-f.Hold) / float64(f.Down)
			return f.Peak - frac*(f.Peak-f.Base)
		default:
			return f.Base
		}
	}
}

// Diurnal is a sinusoidal daily load pattern (the off-peak/peak cycle behind
// the §2 server energy-saving scenario), peaking at t = 0.
type Diurnal struct {
	Mean      float64 // sessions/s averaged over a period
	Amplitude float64 // peak deviation from mean, ≤ Mean
	Period    time.Duration
}

// Rate returns the RateFunc for the diurnal profile. It is clamped at zero.
func (d Diurnal) Rate() RateFunc {
	if d.Period <= 0 {
		panic("workload: Diurnal.Period must be positive")
	}
	return func(t time.Duration) float64 {
		x := 2 * math.Pi * float64(t) / float64(d.Period)
		r := d.Mean + d.Amplitude*math.Cos(x)
		if r < 0 {
			r = 0
		}
		return r
	}
}

// Arrivals samples a non-homogeneous Poisson process with rate function
// rate, bounded above by maxRate, over [0, horizon), using thinning. The
// returned times are sorted. maxRate must be finite and dominate rate
// everywhere; points where rate exceeds maxRate are effectively clipped.
func Arrivals(rng *rand.Rand, rate RateFunc, maxRate float64, horizon time.Duration) []time.Duration {
	if !(maxRate > 0) || math.IsInf(maxRate, 1) {
		panic(fmt.Sprintf("workload: maxRate must be finite and positive, got %v", maxRate))
	}
	var out []time.Duration
	t := 0.0
	hs := horizon.Seconds()
	for {
		t += rng.ExpFloat64() / maxRate
		if t >= hs {
			break
		}
		at := time.Duration(t * float64(time.Second))
		r := rate(at)
		if r > maxRate {
			r = maxRate
		}
		if rng.Float64() < r/maxRate {
			out = append(out, at)
		}
	}
	return out
}

// Zipf draws content IDs 0..n-1 with Zipf(s) popularity, the standard model
// for video catalog popularity. IDs are returned most-popular-first (ID 0 is
// the most popular item).
type Zipf struct {
	z *rand.Zipf
}

// NewZipf creates a Zipf sampler over n items with exponent s > 1... rand.Zipf
// requires s > 1; use s≈1.1 for a long tail typical of video catalogs.
func NewZipf(rng *rand.Rand, s float64, n int) *Zipf {
	if n <= 0 {
		panic("workload: Zipf needs n > 0")
	}
	z := rand.NewZipf(rng, s, 1, uint64(n-1))
	if z == nil {
		panic(fmt.Sprintf("workload: invalid Zipf parameters s=%v n=%d", s, n))
	}
	return &Zipf{z: z}
}

// Draw returns a content ID in [0, n).
func (z *Zipf) Draw() int { return int(z.z.Uint64()) }

// WeightedChoice selects among labelled alternatives with fixed weights —
// used for the client-ISP mix and device mix.
type WeightedChoice struct {
	labels []string
	cum    []float64
	total  float64
}

// NewWeightedChoice builds a picker. Weights must be non-negative with a
// positive sum. The label order given here fixes the sampling order, keeping
// runs deterministic.
func NewWeightedChoice(labels []string, weights []float64) *WeightedChoice {
	if len(labels) != len(weights) || len(labels) == 0 {
		panic("workload: labels and weights must be equal-length and non-empty")
	}
	w := &WeightedChoice{labels: append([]string(nil), labels...)}
	for _, x := range weights {
		if x < 0 {
			panic("workload: negative weight")
		}
		w.total += x
		w.cum = append(w.cum, w.total)
	}
	if w.total <= 0 {
		panic("workload: zero total weight")
	}
	return w
}

// Pick draws a label.
func (w *WeightedChoice) Pick(rng *rand.Rand) string {
	x := rng.Float64() * w.total
	i := sort.SearchFloat64s(w.cum, x)
	if i >= len(w.labels) {
		i = len(w.labels) - 1
	}
	return w.labels[i]
}

// Session is one generated viewing session.
type Session struct {
	// Arrival is the offset from simulation start.
	Arrival time.Duration
	// ContentID indexes the catalog (Zipf-popular).
	ContentID int
	// ClientGroup labels the client population (typically the ISP).
	ClientGroup string
	// IntendedDuration is how long the viewer intends to watch.
	IntendedDuration time.Duration
}

// Spec describes a workload to generate.
type Spec struct {
	Rate    RateFunc
	MaxRate float64
	Horizon time.Duration
	Groups  *WeightedChoice
	// MeanDuration is the mean of the exponentially distributed intended
	// viewing duration. Default 10 minutes if zero.
	MeanDuration time.Duration
	// MinDuration floors the intended duration. Default 30s if zero.
	MinDuration time.Duration
}

// The generated catalog: catalogSize titles with Zipf(zipfS) popularity.
const (
	catalogSize = 1000
	zipfS       = 1.2
)

// Generate produces the session list for a spec.
func Generate(rng *rand.Rand, s Spec) []Session {
	if s.MeanDuration == 0 {
		s.MeanDuration = 10 * time.Minute
	}
	if s.MinDuration == 0 {
		s.MinDuration = 30 * time.Second
	}
	zipf := NewZipf(rng, zipfS, catalogSize)
	arrivals := Arrivals(rng, s.Rate, s.MaxRate, s.Horizon)
	out := make([]Session, 0, len(arrivals))
	for _, at := range arrivals {
		dur := time.Duration(rng.ExpFloat64() * float64(s.MeanDuration))
		if dur < s.MinDuration {
			dur = s.MinDuration
		}
		grp := ""
		if s.Groups != nil {
			grp = s.Groups.Pick(rng)
		}
		out = append(out, Session{
			Arrival:          at,
			ContentID:        zipf.Draw(),
			ClientGroup:      grp,
			IntendedDuration: dur,
		})
	}
	return out
}
