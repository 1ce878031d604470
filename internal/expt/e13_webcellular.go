package expt

import (
	"math"
	"math/rand"

	"eona/internal/agg"
	"eona/internal/infer"
	"eona/internal/qoe"
	"eona/internal/web"
)

// E13 — Figures 1(a) and 4 in their native setting: web over cellular.
//
// Paper claim (Figure 4): cellular operators infer application experience
// "based on radio network characteristics [IRAT handover, etc.] or
// network-level behaviors [flow flag, etc.]" — including using HTTP
// time-to-first-byte as a proxy for web experience (Halepovic et al.,
// IMC'12 [27]) — "while application experience is available from clients."
//
// A corpus of page loads over sampled cellular channels is generated with
// the web substrate. Three estimators of the web experience score are
// compared against the direct client-side measurement:
//
//   - TTFB proxy: the [27] approach — predict the score from TTFB alone.
//   - Radio + flow features: OLS over everything the operator sees (radio
//     state, cell load, RTT, handovers, bytes, TTFB) — the Prometheus/
//     MobiCom-style approach of [14,16].
//   - Direct A2I: the client reports WebScore; zero error by construction.

// E13Result reports error per estimator.
type E13Result struct {
	// TTFBOnly is the single-feature [27]-style estimator.
	TTFBOnly infer.Eval
	// RadioFlow is OLS over all operator-visible features.
	RadioFlow infer.Eval
	// AbortRate is the fraction of aborted loads (score 0 mass).
	AbortRate float64
	// ScoreStdDev contextualizes the errors.
	ScoreStdDev float64
}

// e13Samples is the size of E13's page-load corpus.
const e13Samples = 600

// RunE13 builds the corpus and evaluates the estimators.
func RunE13(seed int64) E13Result {
	rng := rand.New(rand.NewSource(seed))
	var full, ttfbOnly infer.Dataset
	var scores agg.Welford
	aborts := 0
	for i := 0; i < e13Samples; i++ {
		ch := web.SampleChannel(rng)
		pg := web.SamplePage(rng)
		m := web.Load(pg, ch)
		score := qoe.WebScore(m)
		if m.Aborted {
			aborts++
		}
		ttfbMs := float64(m.TTFB.Milliseconds())
		// Operator-visible features: radio characteristics and flow
		// statistics — but not the page structure or the rendered
		// experience.
		full.Add([]float64{
			float64(ch.State),
			ch.CellLoad,
			float64(ch.RTT.Milliseconds()),
			float64(ch.Handovers),
			ttfbMs,
		}, score)
		ttfbOnly.Add([]float64{ttfbMs}, score)
		scores.Add(score)
	}

	res := E13Result{AbortRate: float64(aborts) / e13Samples}
	if trainT, testT := ttfbOnly.Split(5); trainT.Len() > 0 {
		if m, err := infer.FitLinReg(trainT); err == nil {
			res.TTFBOnly = infer.Evaluate(m, testT)
		}
	}
	if trainF, testF := full.Split(5); trainF.Len() > 0 {
		if m, err := infer.FitLinReg(trainF); err == nil {
			res.RadioFlow = infer.Evaluate(m, testF)
		}
	}
	res.ScoreStdDev = math.Sqrt(scores.Variance())
	return res
}

// Table renders the estimator comparison.
func (r E13Result) Table() *Table {
	t := &Table{
		Title:   "E13 (Figs 1a+4): cellular web experience — operator inference vs direct A2I",
		Columns: []string{"estimator", "MAE (score pts)", "RMSE", "rank corr (Spearman)"},
	}
	t.AddRow("TTFB proxy [27]", Cell(r.TTFBOnly.MAE), Cell(r.TTFBOnly.RMSE), Cell(r.TTFBOnly.Spearman))
	t.AddRow("radio + flow features [14,16]", Cell(r.RadioFlow.MAE), Cell(r.RadioFlow.RMSE), Cell(r.RadioFlow.Spearman))
	t.AddRow("direct A2I measurement", "0", "0", "1.000")
	t.Notes = append(t.Notes,
		Cell(r.ScoreStdDev)+" = natural score std-dev; abort rate "+Cell(100*r.AbortRate)+"%",
		"paper (Fig 4): operators infer experience from 'IRAT handover, etc.' and 'flow flag, etc.' while 'application experience is available from clients'")
	return t
}
