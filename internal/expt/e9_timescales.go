package expt

import (
	"fmt"
	"time"
)

// E9 — §5 "control conflicts and instabilities": timescale coupling.
//
// Paper claim: "today the InfPs and AppPs are operating on very different
// timescales; e.g., ISP traffic engineering operates on the scales of tens
// of minutes ... while video players react on the timescales of a few
// seconds. With a EONA world where both ... are operating in synchrony, we
// could introduce new types of instabilities", and "we speculate that some
// sort of dampening or backoff algorithms can help here."
//
// We hold the AppP control period at 1 minute and sweep the ISP TE period
// from 1 minute (fully synchronized — the dangerous regime) to 32 minutes
// (today's separation), in the EONA-less baseline where the loops conflict.
// Undampened, synchronized loops flap maximally; hysteresis + randomized
// exponential backoff suppress the churn at every period.

// E9Point is one TE-period setting with both dampening arms.
type E9Point struct {
	TEPeriod             time.Duration
	Undampened, Dampened Fig5Result
}

// E9Result is the sweep.
type E9Result struct {
	Points []E9Point
}

// E9TEPeriods is the swept TE period ladder.
var E9TEPeriods = []time.Duration{
	time.Minute, 2 * time.Minute, 4 * time.Minute, 8 * time.Minute, 16 * time.Minute, 32 * time.Minute,
}

// RunE9 executes the timescale sweep.
func RunE9(seed int64) E9Result {
	out := E9Result{}
	horizon := 4 * time.Hour
	for _, te := range E9TEPeriods {
		base := Fig5Config{
			Seed: seed, Horizon: horizon,
			AppPMode: Baseline, InfPMode: Baseline,
			TEPeriod: te, // the AppP runs every 1 min epoch
		}
		damp := base
		damp.Dampening = true
		out.Points = append(out.Points, E9Point{
			TEPeriod:   te,
			Undampened: RunFig5(base),
			Dampened:   RunFig5(damp),
		})
	}
	return out
}

// Table renders switch rates per hour against the timescale ratio.
func (r E9Result) Table() *Table {
	t := &Table{
		Title: "E9 (§5): timescale coupling — total switches/hour, undampened vs dampened",
		Columns: []string{"TE period", "AppP period", "switches/h (undamped)", "switches/h (damped)",
			"QoE (undamped)", "QoE (damped)"},
	}
	for _, p := range r.Points {
		hours := p.Undampened.Config.Horizon.Hours()
		su := float64(p.Undampened.ISPSwitches+p.Undampened.AppPSwitches) / hours
		sd := float64(p.Dampened.ISPSwitches+p.Dampened.AppPSwitches) / hours
		t.AddRow(p.TEPeriod.String(), "1m0s",
			Cell(su), Cell(sd),
			Cell(p.Undampened.MeanScore), Cell(p.Dampened.MeanScore))
	}
	t.Notes = append(t.Notes,
		"paper: synchronized control loops 'could introduce new types of instabilities or oscillation problems'",
		fmt.Sprintf("paper: 'some sort of dampening or backoff algorithms can help here' — dampened arms use hysteresis (20%%) + randomized exponential backoff"))
	return t
}
