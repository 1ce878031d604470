package expt

import (
	"testing"
	"time"
)

func TestE2SensitivityRegime(t *testing.T) {
	points := runE2Sensitivity(1)
	if len(points) != 6 {
		t.Fatalf("points = %d", len(points))
	}
	byDemand := map[float64]e2SensitivityPoint{}
	for _, p := range points {
		byDemand[p.DemandBps] = p
	}
	// Well below peering B's capacity there is nothing to oscillate
	// about.
	if byDemand[50e6].BaselineOscillates {
		t.Error("baseline oscillated at light load")
	}
	// At exactly the TE high-water boundary (90 Mbps = 0.9×B) the
	// cost-greedy ISP may flap egresses, but harmlessly: both paths fit
	// the load, so the flapping must not cost QoE.
	if byDemand[90e6].BaselineScore < 99 {
		t.Errorf("boundary flapping cost QoE: %v", byDemand[90e6].BaselineScore)
	}
	// In the paper's regime (demand > B, > Y) the cycle appears.
	for _, d := range []float64{110e6, 150e6, 250e6} {
		if !byDemand[d].BaselineOscillates {
			t.Errorf("baseline did not oscillate at %.0f Mbps", d/1e6)
		}
	}
	// EONA dominates or ties everywhere (small tolerance for the
	// one-epoch initial transient).
	for _, p := range points {
		if p.EONAScore < p.BaselineScore-1 {
			t.Errorf("at %.0f Mbps EONA (%v) fell below baseline (%v)",
				p.DemandBps/1e6, p.EONAScore, p.BaselineScore)
		}
	}
}

// e2SensitivityPoint is one demand level of the sensitivity sweep.
type e2SensitivityPoint struct {
	DemandBps          float64
	BaselineOscillates bool
	BaselineScore      float64
	EONAScore          float64
}

// runE2Sensitivity maps the oscillation regime: sweep offered load from
// well under peering B's capacity to beyond peering C's, and record where
// the baseline limit cycle lives and how the EONA arm fares. The cycle
// requires demand that overloads the cheap peering (B, 100 Mbps) while the
// fallback CDN (Y, 80 Mbps) cannot absorb it — the paper's exact
// preconditions.
func runE2Sensitivity(seed int64) []e2SensitivityPoint {
	var out []e2SensitivityPoint
	for _, demand := range []float64{50e6, 90e6, 110e6, 150e6, 250e6, 350e6} {
		d := demand
		mk := func(mode Mode) Fig5Result {
			return RunFig5(Fig5Config{
				Seed: seed, Horizon: time.Hour,
				Demand:   func(time.Duration) float64 { return d },
				AppPMode: mode, InfPMode: mode,
			})
		}
		b, e := mk(Baseline), mk(EONA)
		out = append(out, e2SensitivityPoint{
			DemandBps:          demand,
			BaselineOscillates: b.Oscillating,
			BaselineScore:      b.MeanScore,
			EONAScore:          e.MeanScore,
		})
	}
	return out
}
