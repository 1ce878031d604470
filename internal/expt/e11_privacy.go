package expt

import (
	"math"

	"eona/internal/privacy"
	"eona/internal/qoe"
)

// E11 — §4 "balancing effectiveness vs. minimality".
//
// Paper claim: "In order that necessary information is shared while
// preserving privacy concerns, one can think of using standard techniques
// such as aggregation or other types of 'blinding' techniques." The §4
// example gives A2I "an estimate of the total volume of traffic intended to
// different CDNs so that the InfP can decide a suitable traffic split
// across peering points."
//
// We implement exactly that traffic-split use: every epoch the ISP sizes
// the share of CDN X's traffic it egresses via the cheap local peering B
// (capacity 100 Mbps) from the AppP's volume estimate, spilling the rest to
// the IXP peering C. The estimate carries Laplace noise at privacy budget
// ε (sensitivity: one 3 Mbps session). Underestimates oversubscribe B and
// starve sessions; the sweep maps blinding level onto retained control
// quality. Without any estimate the ISP falls back to cost preference
// (everything via B) — the no-sharing floor.

// E11Point is one privacy level.
type E11Point struct {
	// Epsilon is the Laplace privacy budget; +Inf means exact export.
	Epsilon float64
	// MeanScore is the mean per-epoch QoE score.
	MeanScore float64
	// CongestedEpochs counts epochs where the B slice was starved.
	CongestedEpochs int
	// MeanAbsEstErrBps is the mean absolute estimate error.
	MeanAbsEstErrBps float64
}

// E11Result is the sweep plus the no-sharing floor.
type E11Result struct {
	Points []E11Point
	// BaselineScore is the no-sharing (cost-preference) floor.
	BaselineScore float64
}

// E11Epsilons is the privacy ladder (Inf = exact).
var E11Epsilons = []float64{math.Inf(1), 1, 0.03, 0.01, 0.003}

const (
	e11Nominal = 3e6
	e11CapB    = 100e6
	e11CapC    = 400e6
	e11Epochs  = 240
)

// e11Demand swells between 110 and 190 Mbps so both peerings stay relevant.
func e11Demand(epoch int) float64 {
	return 150e6 + 40e6*math.Sin(2*math.Pi*float64(epoch)/60)
}

// e11Score scores one epoch of a split: traffic split into a B slice and a
// C slice, each delivering min(demand, capacity), scored with the fluid
// score fig5 uses.
func e11Score(model qoe.Model, demandB, demandC float64) float64 {
	total := demandB + demandC
	if total <= 0 {
		return 100
	}
	score := 0.0
	for _, slice := range []struct{ demand, cap float64 }{
		{demandB, e11CapB}, {demandC, e11CapC},
	} {
		if slice.demand <= 0 {
			continue
		}
		sessions := slice.demand / e11Nominal
		per := math.Min(slice.demand, slice.cap) / sessions
		score += model.FluidScore(per, e11Nominal) * slice.demand / total
	}
	return score
}

// RunE11 executes the privacy sweep.
func RunE11(seed int64) E11Result {
	model := qoe.DefaultModel()
	model.MaxBitrate = e11Nominal
	var out E11Result

	for _, eps := range E11Epsilons {
		noiser := privacy.NewNoiser(0, e11Nominal, seed)
		if !math.IsInf(eps, 1) {
			noiser = privacy.NewNoiser(eps, e11Nominal, seed)
		}
		var p E11Point
		p.Epsilon = eps
		for epoch := 0; epoch < e11Epochs; epoch++ {
			v := e11Demand(epoch)
			est := max(noiser.Noise(v), 0)
			p.MeanAbsEstErrBps += math.Abs(est - v)
			// ISP sizes the cheap-B slice to the estimate, with
			// 10% safety margin, spilling the rest to C. With no
			// estimated traffic it defaults to cost preference:
			// everything via the cheap local peering B.
			fB := 1.0
			if est > 0 {
				fB = math.Min(e11CapB/1.1, est) / est
			}
			demandB := fB * v
			demandC := v - demandB
			if demandB > e11CapB {
				p.CongestedEpochs++
			}
			p.MeanScore += e11Score(model, demandB, demandC)
		}
		p.MeanScore /= e11Epochs
		p.MeanAbsEstErrBps /= e11Epochs
		out.Points = append(out.Points, p)
	}

	// No-sharing floor: cost preference sends everything via B until it
	// observes congestion — modelled as routing min(v, capB) blindly by
	// *yesterday's* habit: all traffic via B (the pre-EONA default).
	for epoch := 0; epoch < e11Epochs; epoch++ {
		v := e11Demand(epoch)
		out.BaselineScore += e11Score(model, v, 0)
	}
	out.BaselineScore /= e11Epochs
	return out
}

// Table renders the ladder.
func (r E11Result) Table() *Table {
	t := &Table{
		Title:   "E11 (§4): A2I volume-estimate blinding vs traffic-split quality",
		Columns: []string{"noise ε", "mean QoE score", "congested epochs", "mean |est err| (Mbps)"},
	}
	for _, p := range r.Points {
		name := "exact (no noise)"
		if !math.IsInf(p.Epsilon, 1) {
			name = Cell(p.Epsilon)
		}
		t.AddRow(name, Cell(p.MeanScore),
			Cell(float64(p.CongestedEpochs)),
			Cell(p.MeanAbsEstErrBps/1e6))
	}
	t.AddRow("(no sharing: all via cheap B)", Cell(r.BaselineScore), "-", "-")
	t.Notes = append(t.Notes,
		"paper §4: A2I provides 'an estimate of the total volume of traffic intended to different CDNs so that the InfP can decide a suitable traffic split across peering points'",
		"blinding (Laplace noise) trades privacy against split quality; light noise is free, heavy noise approaches the unshared floor")
	return t
}
