package expt

import (
	"math"
	"testing"
	"time"

	"eona/internal/faults"
)

// Failure injection: the EONA loops must re-converge after infrastructure
// state changes underneath them — the reactive half of the paper's §5 InfP
// control logic ("use reactive measures if they observe quality
// degradations").

// peeringBFailure degrades peering B from 100 to 60 Mbps at t and never
// restores it.
func peeringBFailure(at time.Duration) *faults.Plan {
	return &faults.Plan{LinkFaults: []faults.LinkFault{{
		Link:   "peering-B",
		Window: faults.Window{Start: at, End: math.MaxInt64},
		Factor: 0.6,
	}}}
}

func TestEONAReconvergesAfterPeeringDegradation(t *testing.T) {
	// Demand 85 Mbps fits peering B (100 Mbps) with margin, so the EONA
	// pair settles on the cheap local peering. At t=1h B degrades to
	// 60 Mbps; the A2I estimate (93.5 Mbps with margin) no longer fits,
	// the InfP moves CDN X to C, and everything is healthy again.
	cfg := Fig5Config{
		Seed:     1,
		Horizon:  2 * time.Hour,
		Demand:   func(time.Duration) float64 { return 85e6 },
		AppPMode: EONA,
		InfPMode: EONA,
		Faults:   peeringBFailure(time.Hour),
	}
	r := RunFig5(cfg)

	// Exactly one reactive egress change: B (pre-failure) then C.
	if len(r.EgressHistory) != 2 || r.EgressHistory[0] != "B" || r.EgressHistory[1] != "C" {
		t.Fatalf("egress history = %v, want [B C]", r.EgressHistory)
	}
	if r.AppPSwitches != 0 {
		t.Errorf("AppP switched CDN %d times; the peering move should have sufficed", r.AppPSwitches)
	}
	if r.Oscillating {
		t.Error("failure recovery oscillated")
	}
	// Mean score takes a dip around the failure epoch but stays high
	// overall (119 healthy epochs, ~1-2 degraded).
	if r.MeanScore < 95 {
		t.Errorf("mean score = %v, want ≥95 (fast recovery)", r.MeanScore)
	}
}

func TestBaselineChurnsAfterPeeringDegradation(t *testing.T) {
	// The same failure under baseline control: B degrades, utilization
	// spikes, the cost-greedy TE evacuates, B drains, it flips back —
	// and the AppP's flight to the undersized CDN Y (60 Mbps here) fails
	// too, so the post-failure regime churns on both knobs.
	cfg := Fig5Config{
		Seed:      1,
		Horizon:   2 * time.Hour,
		Demand:    func(time.Duration) float64 { return 85e6 },
		IXPToYBps: 60e6,
		AppPMode:  Baseline,
		InfPMode:  Baseline,
		Faults:    peeringBFailure(time.Hour),
	}
	r := RunFig5(cfg)
	if r.ISPSwitches < 10 {
		t.Errorf("baseline ISP switches = %d, expected post-failure churn", r.ISPSwitches)
	}
	eona := RunFig5(Fig5Config{
		Seed: 1, Horizon: 2 * time.Hour,
		Demand:    func(time.Duration) float64 { return 85e6 },
		IXPToYBps: 60e6,
		AppPMode:  EONA, InfPMode: EONA,
		Faults: peeringBFailure(time.Hour),
	})
	if eona.MeanScore <= r.MeanScore {
		t.Errorf("EONA post-failure score (%v) should beat baseline (%v)",
			eona.MeanScore, r.MeanScore)
	}
}

func TestFailureBeforeHorizonOnly(t *testing.T) {
	// A failure scheduled beyond the horizon never fires: identical to
	// the failure-free run.
	base := Fig5Config{Seed: 1, AppPMode: EONA, InfPMode: EONA}
	withLateFailure := base
	withLateFailure.Faults = peeringBFailure(100 * time.Hour)
	a, b := RunFig5(base), RunFig5(withLateFailure)
	if a.MeanScore != b.MeanScore || a.ISPSwitches != b.ISPSwitches {
		t.Error("failure beyond horizon affected the run")
	}
}
