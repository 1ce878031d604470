package privacy

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLaplaceMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 200000
	scale := 2.0
	sum, sumAbs := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := Laplace(rng, scale)
		sum += v
		sumAbs += math.Abs(v)
	}
	if mean := sum / n; math.Abs(mean) > 0.05 {
		t.Errorf("Laplace mean = %v, want ≈0", mean)
	}
	// E|X| = scale for Laplace.
	if meanAbs := sumAbs / n; math.Abs(meanAbs-scale) > 0.05 {
		t.Errorf("Laplace E|X| = %v, want %v", meanAbs, scale)
	}
	if Laplace(rng, 0) != 0 || Laplace(rng, -1) != 0 {
		t.Error("non-positive scale should produce zero noise")
	}
}

func TestNoiserDisabled(t *testing.T) {
	n := NewNoiser(0, 1, 1)
	if n.Noise(42) != 42 {
		t.Error("ε=0 should disable noise")
	}
}

func TestNoiserScalesWithEpsilon(t *testing.T) {
	spread := func(eps float64) float64 {
		n := NewNoiser(eps, 1, 7)
		s := 0.0
		for i := 0; i < 10000; i++ {
			s += math.Abs(n.Noise(0))
		}
		return s / 10000
	}
	tight, loose := spread(10), spread(0.1)
	if loose < 10*tight {
		t.Errorf("noise at ε=0.1 (%v) should dwarf ε=10 (%v)", loose, tight)
	}
}

func TestNoisyCountNonNegative(t *testing.T) {
	n := NewNoiser(0.01, 1, 3)
	for i := 0; i < 1000; i++ {
		if n.NoisyCount(1) < 0 {
			t.Fatal("NoisyCount went negative")
		}
	}
}

func TestCoarsenFloat(t *testing.T) {
	if got := CoarsenFloat(0.87, 0.05); math.Abs(got-0.85) > 1e-12 {
		t.Errorf("CoarsenFloat = %v, want 0.85", got)
	}
	if CoarsenFloat(3.7, 0) != 3.7 {
		t.Error("step 0 should be identity")
	}
}

// Property: coarsening never increases a value and moves it by less than
// one step.
func TestQuickCoarsenFloat(t *testing.T) {
	f := func(vRaw int16, stepRaw uint8) bool {
		v := float64(vRaw) / 10
		step := float64(stepRaw%50)/100 + 0.01
		got := CoarsenFloat(v, step)
		return got <= v+1e-9 && v-got < step+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
