package expt

import (
	"fmt"
	"math"
	"strconv"

	"eona/internal/control"
	"eona/internal/qoe"
)

// E14 — §5 "search space exploration".
//
// Paper claim: "Both AppPs and InfPs are deploying new capabilities that
// give them more control knobs. With more knobs, however, the search space
// of options grows combinatorially. A natural question is if and how EONA
// interfaces can simplify this exploration process."
//
// A multi-region delivery configuration problem: each of R client regions
// picks a CDN (X or Y) and a bitrate-cap level (3 options); the ISP picks
// the egress for CDN X (B or C). The regions couple through shared link
// capacities, so the joint space is 6^R × 2. The global controller explores
// it exhaustively. The EONA alternative is coordinate ascent: each knob is
// optimized in turn against the shared view — possible only because the
// interfaces expose the other party's decisions and state (otherwise a
// party cannot evaluate the joint objective at all). E14 measures the
// evaluation-count gap and the fraction of the exhaustive optimum the
// decomposed search reaches.

// E14Point is one problem size.
type E14Point struct {
	Regions int
	// SpaceSize is the joint configuration count.
	SpaceSize int
	// Exhaustive/Ascent evaluation counts and scores.
	ExhaustiveEvals int
	ExhaustiveScore float64
	AscentEvals     int
	AscentScore     float64
}

// E14Result is the sweep over problem sizes.
type E14Result struct {
	Points []E14Point
}

// e14Eval builds the joint objective for R regions: per-region demand of
// 60+10r Mbps, capacities B=100, C=400 (shared with the IXP paths), CDN Y
// serving 80. The score is the demand-weighted mean of the regions' fluid
// scores (qoe.Model.FluidScore).
func e14Eval(regions int) (spaces []control.KnobSpace, eval func(control.Assignment) float64) {
	model := qoe.DefaultModel()
	model.MaxBitrate = 3e6

	demands := make([]float64, regions)
	for r := range demands {
		demands[r] = 60e6 + 10e6*float64(r)
	}
	capLevels := map[string]float64{"1.0": 1.0, "0.66": 0.66, "0.33": 0.33}

	// Coarse infrastructure knob first (see control.CoordinateAscent's
	// ordering contract), then the per-region application knobs.
	spaces = append(spaces, control.KnobSpace{Name: "egressX", Options: []string{"B", "C"}})
	for r := 0; r < regions; r++ {
		spaces = append(spaces,
			control.KnobSpace{Name: "cdn" + strconv.Itoa(r), Options: []string{"X", "Y"}},
			control.KnobSpace{Name: "cap" + strconv.Itoa(r), Options: []string{"1.0", "0.66", "0.33"}},
		)
	}

	eval = func(a control.Assignment) float64 {
		const capB, capC, capY = 100e6, 400e6, 80e6
		// Offered load per shared link.
		var loadB, loadC, loadY float64
		offered := make([]float64, regions)
		for r := 0; r < regions; r++ {
			d := demands[r] * capLevels[a["cap"+strconv.Itoa(r)]]
			offered[r] = d
			if a["cdn"+strconv.Itoa(r)] == "X" {
				if a["egressX"] == "B" {
					loadB += d
				} else {
					loadC += d
				}
			} else {
				loadC += d
				loadY += d
			}
		}
		// Per-link delivery fraction under proportional sharing.
		frac := func(load, cap float64) float64 {
			if load <= cap || load == 0 {
				return 1
			}
			return cap / load
		}
		fB, fC, fY := frac(loadB, capB), frac(loadC, capC), frac(loadY, capY)

		total, weighted := 0.0, 0.0
		for r := 0; r < regions; r++ {
			per := offered[r] / (demands[r] / 3e6) // per-session target
			f := 1.0
			if a["cdn"+strconv.Itoa(r)] == "X" {
				if a["egressX"] == "B" {
					f = fB
				} else {
					f = fC
				}
			} else {
				f = math.Min(fC, fY)
			}
			weighted += model.FluidScore(per*f, per) * demands[r]
			total += demands[r]
		}
		return weighted / total
	}
	return spaces, eval
}

// RunE14 sweeps problem sizes.
func RunE14(_ int64) E14Result {
	var out E14Result
	for _, regions := range []int{2, 3, 4, 5, 6} {
		spaces, eval := e14Eval(regions)
		space := 2 * pow(6, regions)
		_, exScore, exEvals := control.Enumerate(spaces, eval)
		_, caScore, caEvals := control.CoordinateAscent(spaces, eval, nil, 0)
		out.Points = append(out.Points, E14Point{
			Regions:         regions,
			SpaceSize:       space,
			ExhaustiveEvals: exEvals,
			ExhaustiveScore: exScore,
			AscentEvals:     caEvals,
			AscentScore:     caScore,
		})
	}
	return out
}

func pow(base, exp int) int {
	out := 1
	for i := 0; i < exp; i++ {
		out *= base
	}
	return out
}

// Table renders the sweep.
func (r E14Result) Table() *Table {
	t := &Table{
		Title: "E14 (§5): search-space exploration — exhaustive vs EONA-guided coordinate search",
		Columns: []string{"regions", "joint space", "exhaustive evals", "ascent evals",
			"ascent score", "% of optimum"},
	}
	for _, p := range r.Points {
		t.AddRow(
			fmt.Sprintf("%d", p.Regions),
			fmt.Sprintf("%d", p.SpaceSize),
			fmt.Sprintf("%d", p.ExhaustiveEvals),
			fmt.Sprintf("%d", p.AscentEvals),
			Cell(p.AscentScore),
			Cell(100*p.AscentScore/p.ExhaustiveScore))
	}
	t.Notes = append(t.Notes,
		"paper: 'with more knobs ... the search space of options grows combinatorially'",
		"coordinate search is only possible with the EONA view: evaluating a knob needs the other party's decisions and state")
	return t
}
