package expt

import (
	"strconv"
	"time"

	"eona/internal/faults"
)

// E15 — chaos sweep: EONA under deterministic fault injection.
//
// Paper claim (§5, "dealing with staleness"): the EONA interfaces carry
// hints across an administrative boundary, so the partner can disappear —
// and the control logic "must also be designed to be robust against such
// staleness or inaccuracies". E15 makes that failure mode concrete: the
// Figure 5 scenario runs under a seeded fault plan that flaps the ISP's
// access link (2.5% capacity for 20 minutes) and then takes the partner
// exchange down entirely, so the AppP's last received I2A view says
// "access congested, cap your bitrate" long after the congestion has
// cleared.
//
// Three control variants face the same plan:
//
//   - baseline: today's EONA-less loops (never read hints at all);
//   - naive EONA: trusts the last hints forever (ConfidenceFloor 0);
//   - confidence-aware EONA: hint confidence decays on a half-life and
//     below a floor the policies degrade to exactly the baseline rules.
//
// Expected shape: naive EONA keeps the stale bitrate cap pinned for the
// whole partner outage, so its mean score falls below even the baseline
// once the outage is long compared to the hint half-life. Confidence-aware
// EONA rides the hints while they are trustworthy and pays only the
// baseline's (bounded) trial-and-error cost once they are not — it stays
// at or above the baseline at every outage length. A second sweep varies
// the number of seed-placed link flaps at a fixed outage, as a
// fault-density stress check.

// E15 scenario constants. The access flap drops the 1G access link to
// 30 Mbps — ~1 Mbps per session at the 85 Mbps offered load — and the
// partner outage begins right as the flap ends, freezing the congested-
// access attribution in the naive AppP's hands.
const (
	e15Horizon    = 4 * time.Hour
	e15DemandBps  = 85e6
	e15IXPToYBps  = 60e6 // undersized CDN Y: switching there cannot fit demand
	e15FlapAt     = 40*time.Minute + 30*time.Second
	e15FlapLen    = 20 * time.Minute
	e15FlapFactor = 0.03
	e15OutageAt   = e15FlapAt + e15FlapLen

	// E15HalfLife is the hint-confidence half-life of the aware variant;
	// E15Floor is its degrade-to-baseline confidence floor. With these,
	// hints older than ~10 minutes are no longer acted on.
	E15HalfLife = 30 * time.Minute
	E15Floor    = 0.8
)

// E15OutageLens is the swept partner-outage duration (the independent
// variable of the main sweep). It brackets the hint half-life.
var E15OutageLens = []time.Duration{
	0, 10 * time.Minute, 30 * time.Minute, time.Hour, 2 * time.Hour,
}

// E15FlapCounts is the swept number of seed-placed access flaps for the
// fault-density rows.
var E15FlapCounts = []int{1, 2, 4}

// E15Point is one fault plan, run under all three variants: a
// partner-outage length in the main sweep, a link-flap count in the
// density sweep.
type E15Point struct {
	OutageLen time.Duration
	Flaps     int
	Baseline  Fig5Result
	Naive     Fig5Result
	Aware     Fig5Result
}

// E15Result holds both sweeps.
type E15Result struct {
	Outages   []E15Point
	FlapRates []E15Point
}

// e15OutagePlan builds the main-sweep fault plan: one pinned access flap
// and a partner outage of the given length starting at the flap's end.
func e15OutagePlan(seed int64, outageLen time.Duration) *faults.Plan {
	return faults.Generate(faults.Config{
		Seed:    seed,
		Horizon: e15Horizon,
		Links: []faults.LinkFaultConfig{
			{Link: "access", At: e15FlapAt, Duration: e15FlapLen, Factor: e15FlapFactor},
		},
		Partner: faults.PartnerFaultConfig{OutageAt: e15OutageAt, OutageLen: outageLen},
	})
}

// e15FlapPlan builds the density-sweep plan: n seed-placed access flaps
// plus the fixed one-hour partner outage.
func e15FlapPlan(seed int64, n int) *faults.Plan {
	return faults.Generate(faults.Config{
		Seed:    seed,
		Horizon: e15Horizon,
		Links: []faults.LinkFaultConfig{
			{Link: "access", Count: n, Duration: 10 * time.Minute, Factor: e15FlapFactor},
		},
		Partner: faults.PartnerFaultConfig{OutageAt: e15OutageAt, OutageLen: time.Hour},
	})
}

// e15Variant runs the Figure 5 scenario under the given plan and hint
// handling. halfLife/floor zero is the naive always-trust stance.
func e15Variant(seed int64, plan *faults.Plan, mode Mode, halfLife time.Duration, floor float64) Fig5Result {
	return RunFig5(Fig5Config{
		Seed:            seed,
		Horizon:         e15Horizon,
		Demand:          func(time.Duration) float64 { return e15DemandBps },
		IXPToYBps:       e15IXPToYBps,
		AppPMode:        mode,
		InfPMode:        mode,
		Faults:          plan,
		HintHalfLife:    halfLife,
		ConfidenceFloor: floor,
	})
}

// e15Point runs the three variants under one plan.
func e15Point(seed int64, plan *faults.Plan) E15Point {
	return E15Point{
		Baseline: e15Variant(seed, plan, Baseline, 0, 0),
		Naive:    e15Variant(seed, plan, EONA, 0, 0),
		Aware:    e15Variant(seed, plan, EONA, E15HalfLife, E15Floor),
	}
}

// RunE15 executes the chaos sweep.
func RunE15(seed int64) E15Result {
	var out E15Result
	for _, l := range E15OutageLens {
		p := e15Point(seed, e15OutagePlan(seed, l))
		p.OutageLen = l
		out.Outages = append(out.Outages, p)
	}
	for _, n := range E15FlapCounts {
		p := e15Point(seed, e15FlapPlan(seed, n))
		p.Flaps = n
		out.FlapRates = append(out.FlapRates, p)
	}
	return out
}

// Table renders both sweeps.
func (r E15Result) Table() *Table {
	t := &Table{
		Title: "E15 (§5): chaos sweep — access flap + partner-exchange outage",
		Columns: []string{
			"scenario", "baseline", "naive eona", "aware eona",
			"naive switches", "aware switches",
		},
	}
	for _, p := range r.Outages {
		t.AddRow("outage "+p.OutageLen.String(),
			Cell(p.Baseline.MeanScore), Cell(p.Naive.MeanScore), Cell(p.Aware.MeanScore),
			Cell(float64(p.Naive.AppPSwitches)), Cell(float64(p.Aware.AppPSwitches)))
	}
	for _, p := range r.FlapRates {
		t.AddRow("flaps ×"+strconv.Itoa(p.Flaps)+" (outage 1h)",
			Cell(p.Baseline.MeanScore), Cell(p.Naive.MeanScore), Cell(p.Aware.MeanScore),
			Cell(float64(p.Naive.AppPSwitches)), Cell(float64(p.Aware.AppPSwitches)))
	}
	t.Notes = append(t.Notes,
		"mean QoE score per variant; access flap to 2.5% capacity for 20m, partner exchange lost for the row's duration right after",
		"aware eona: hint confidence half-life "+E15HalfLife.String()+", degrade-to-baseline floor "+Cell(E15Floor),
		"paper: 'control logics must also be designed to be robust against such staleness or inaccuracies'")
	return t
}
