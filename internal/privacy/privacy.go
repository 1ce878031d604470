// Package privacy implements the "blinding" techniques §4 proposes for
// balancing interface effectiveness against minimality: Laplace noise on
// exported counts (differential-privacy style, after McSherry & Mahajan)
// and attribute coarsening. The third technique, k-anonymity suppression
// of small groups, is the MinGroupSessions rule core applies when it
// summarizes a group. The E11 experiment sweeps these knobs and measures
// how much control quality the EONA loops retain at each blinding level.
package privacy

import (
	"math"
	"math/rand"
)

// Laplace draws Laplace(0, scale) noise using inverse-CDF sampling from the
// provided deterministic source.
func Laplace(rng *rand.Rand, scale float64) float64 {
	if scale <= 0 {
		return 0
	}
	u := rng.Float64() - 0.5
	return -scale * sign(u) * math.Log(1-2*math.Abs(u))
}

func sign(x float64) float64 {
	if x < 0 {
		return -1
	}
	return 1
}

// Noiser adds ε-differentially-private noise to exported aggregates.
// Smaller Epsilon means more noise and more privacy.
type Noiser struct {
	// Epsilon is the privacy budget; ≤ 0 disables noising.
	Epsilon float64
	// Sensitivity is the max influence of one session on the aggregate
	// (1 for counts; the value range for bounded means).
	Sensitivity float64
	rng         *rand.Rand
}

// NewNoiser builds a noiser with a deterministic seed.
func NewNoiser(epsilon, sensitivity float64, seed int64) *Noiser {
	return &Noiser{Epsilon: epsilon, Sensitivity: sensitivity, rng: rand.New(rand.NewSource(seed))}
}

// Noise returns v plus Laplace(sensitivity/ε) noise. Counts may go
// negative; callers that need non-negative values should clamp, accepting
// the small bias.
func (n *Noiser) Noise(v float64) float64 {
	if n.Epsilon <= 0 {
		return v
	}
	return v + Laplace(n.rng, n.Sensitivity/n.Epsilon)
}

// NoisyCount noises a count and clamps it at zero.
func (n *Noiser) NoisyCount(c uint64) float64 {
	v := n.Noise(float64(c))
	if v < 0 {
		return 0
	}
	return v
}

// CoarsenFloat rounds v down to a multiple of step (step ≤ 0 returns v
// unchanged) — e.g., exporting congestion as 5%-granularity utilization
// instead of exact load.
func CoarsenFloat(v, step float64) float64 {
	if step <= 0 {
		return v
	}
	return math.Floor(v/step) * step
}
