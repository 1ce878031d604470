package expt

import "fmt"

// E2 — Figure 5: control-loop oscillation.
//
// Paper claim: with independent control loops, the AppP's CDN choice and
// the ISP's egress choice chase each other in an infinite limit cycle;
// with the EONA exchange (A2I traffic volume, I2A peering state + current
// decision) both loops converge, and the green path (CDN X via peering C)
// is found and kept.

// E2Result holds the two arms plus the oracle bound.
type E2Result struct {
	Baseline Fig5Result
	EONA     Fig5Result
	Oracle   float64
}

// RunE2 executes both arms of the oscillation experiment.
func RunE2(seed int64) E2Result {
	base := Fig5Config{Seed: seed, AppPMode: Baseline, InfPMode: Baseline}
	eona := Fig5Config{Seed: seed, AppPMode: EONA, InfPMode: EONA}
	return E2Result{
		Baseline: RunFig5(base),
		EONA:     RunFig5(eona),
		Oracle:   Fig5Oracle(eona),
	}
}

// Table renders the E2 result.
func (r E2Result) Table() *Table {
	t := &Table{
		Title:   "E2 (Figure 5): independent control loops oscillate; EONA converges",
		Columns: []string{"arm", "mean QoE score", "ISP egress switches", "AppP CDN switches", "limit cycle"},
	}
	rows := []struct {
		name string
		res  Fig5Result
	}{{"baseline/baseline", r.Baseline}, {"EONA/EONA", r.EONA}}
	for _, row := range rows {
		cycle := "no"
		if row.res.Oscillating {
			cycle = fmt.Sprintf("yes (period %d epochs)", row.res.CyclePeriod)
		}
		t.AddRow(row.name, Cell(row.res.MeanScore),
			fmt.Sprintf("%d", row.res.ISPSwitches),
			fmt.Sprintf("%d", row.res.AppPSwitches), cycle)
	}
	t.AddRow("global oracle", Cell(r.Oracle), "-", "-", "-")
	t.Notes = append(t.Notes,
		"paper: 'creating an (infinite) oscillating loop in both AppP and InfP'",
		"paper: 'the oscillation can be avoided if the AppP switches CDN based on peering points' capacity and ISP's peering point selection'")
	return t
}
