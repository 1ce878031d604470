package eona_test

// The benchmark harness: one testing.B benchmark per experiment (table /
// figure) indexed in DESIGN.md §4. Each benchmark regenerates its
// experiment end to end and reports the experiment's headline numbers as
// custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces every row recorded in EXPERIMENTS.md alongside the usual
// time/op. Seeds are fixed: the simulated results are bit-for-bit
// reproducible (E7's wall-clock throughputs vary by machine).

import (
	"testing"

	"eona"
	"eona/internal/expt"
)

// BenchmarkE1FlashCrowd — Figure 3: flash crowd at the ISP access link.
func BenchmarkE1FlashCrowd(b *testing.B) {
	var r expt.E1Pair
	for i := 0; i < b.N; i++ {
		r = expt.RunE1(1)
	}
	b.ReportMetric(r.Baseline.MeanScore, "baseline-score")
	b.ReportMetric(r.EONA.MeanScore, "eona-score")
	b.ReportMetric(r.Baseline.MeanBufRatio*100, "baseline-bufpct")
	b.ReportMetric(r.EONA.MeanBufRatio*100, "eona-bufpct")
	b.ReportMetric(r.Baseline.CDNSwitchesPerSession, "baseline-switches")
}

// BenchmarkE2Oscillation — Figure 5: control-loop oscillation.
func BenchmarkE2Oscillation(b *testing.B) {
	var r eona.OscillationResult
	for i := 0; i < b.N; i++ {
		r = expt.RunE2(1)
	}
	b.ReportMetric(r.Baseline.MeanScore, "baseline-score")
	b.ReportMetric(r.EONA.MeanScore, "eona-score")
	b.ReportMetric(float64(r.Baseline.ISPSwitches+r.Baseline.AppPSwitches), "baseline-switches")
	b.ReportMetric(float64(r.EONA.ISPSwitches+r.EONA.AppPSwitches), "eona-switches")
	b.ReportMetric(r.Oracle, "oracle-score")
}

// BenchmarkE3Inference — Figure 4: QoE inference vs direct measurement.
func BenchmarkE3Inference(b *testing.B) {
	var r expt.E3Result
	for i := 0; i < b.N; i++ {
		r = expt.RunE3(1)
	}
	b.ReportMetric(r.LinReg.MAE, "ols-mae")
	b.ReportMetric(r.KNN.MAE, "knn-mae")
	b.ReportMetric(r.LinReg.Spearman, "ols-spearman")
}

// BenchmarkE4CoarseControl — §2: server failure, CDN switch vs server hint.
func BenchmarkE4CoarseControl(b *testing.B) {
	var r expt.E4Pair
	for i := 0; i < b.N; i++ {
		r = expt.RunE4(1)
	}
	b.ReportMetric(r.Baseline.CohortMeanStallSec, "baseline-stall-s")
	b.ReportMetric(r.EONA.CohortMeanStallSec, "eona-stall-s")
	b.ReportMetric(r.EONA.CDNXRetention, "eona-retention")
}

// BenchmarkE5EnergySaving — §2/§5: server shutdown policies.
func BenchmarkE5EnergySaving(b *testing.B) {
	var r eona.EnergyResult
	for i := 0; i < b.N; i++ {
		r = expt.RunE5(1)
	}
	for _, arm := range r.Arms {
		switch arm.Name {
		case "always-on":
			b.ReportMetric(arm.MeanScore, "alwayson-score")
		case "A2I feedback (+15% & QoE target)":
			b.ReportMetric(arm.MeanScore, "a2i-score")
			b.ReportMetric(arm.EnergyPct, "a2i-energy-pct")
		}
	}
}

// BenchmarkE6Staleness — §5: control quality vs interface delay.
func BenchmarkE6Staleness(b *testing.B) {
	var r expt.E6Result
	for i := 0; i < b.N; i++ {
		r = expt.RunE6(1)
	}
	b.ReportMetric(r.Points[0].Result.MeanScore, "fresh-score")
	b.ReportMetric(r.Points[len(r.Points)-1].Result.MeanScore, "stalest-score")
	b.ReportMetric(r.Baseline.MeanScore, "noeona-score")
}

// BenchmarkE7Scalability — §5: A2I pipeline throughput.
func BenchmarkE7Scalability(b *testing.B) {
	var r expt.E7Result
	for i := 0; i < b.N; i++ {
		r = expt.RunE7(200_000)
	}
	b.ReportMetric(r.CollectorPerSec, "ingest-rec/s")
	b.ReportMetric(r.ImpliedSessionsPerDay/1e9, "sessions-B/day")
	b.ReportMetric(float64(r.QueryP50.Microseconds()), "query-p50-us")
}

// BenchmarkE8InterfaceWidth — §4: interface width ladder.
func BenchmarkE8InterfaceWidth(b *testing.B) {
	var r expt.E8Result
	for i := 0; i < b.N; i++ {
		r = expt.RunE8(1)
	}
	for _, arm := range r.Arms {
		switch arm.Name {
		case "none (status quo)":
			b.ReportMetric(arm.Result.MeanScore, "none-score")
		case "narrow two-way (paper)":
			b.ReportMetric(arm.Result.MeanScore, "narrow-score")
		}
	}
	b.ReportMetric(r.Oracle, "oracle-score")
}

// BenchmarkE9Timescales — §5: timescale coupling and dampening.
func BenchmarkE9Timescales(b *testing.B) {
	var r expt.E9Result
	for i := 0; i < b.N; i++ {
		r = expt.RunE9(1)
	}
	first := r.Points[0]
	hours := first.Undampened.Config.Horizon.Hours()
	b.ReportMetric(float64(first.Undampened.ISPSwitches+first.Undampened.AppPSwitches)/hours, "sync-switches/h")
	b.ReportMetric(float64(first.Dampened.ISPSwitches+first.Dampened.AppPSwitches)/hours, "damped-switches/h")
}

// BenchmarkE10Fairness — §5: fairness across AppPs.
func BenchmarkE10Fairness(b *testing.B) {
	var r expt.E10Result
	for i := 0; i < b.N; i++ {
		r = expt.RunE10(1)
	}
	b.ReportMetric(r.Baseline.JainPerUser, "baseline-jain")
	b.ReportMetric(r.EONA.JainPerUser, "eona-jain")
}

// BenchmarkE11Privacy — §4: blinding level vs control quality.
func BenchmarkE11Privacy(b *testing.B) {
	var r expt.E11Result
	for i := 0; i < b.N; i++ {
		r = expt.RunE11(1)
	}
	b.ReportMetric(r.Points[0].MeanScore, "exact-score")
	b.ReportMetric(r.Points[len(r.Points)-1].MeanScore, "heaviest-noise-score")
	b.ReportMetric(r.BaselineScore, "nosharing-score")
}

// BenchmarkE12FeatureSelection — §4: information-gain attribute ranking.
func BenchmarkE12FeatureSelection(b *testing.B) {
	var r expt.E12Result
	for i := 0; i < b.N; i++ {
		r = expt.RunE12(1)
	}
	b.ReportMetric(r.Ranking[0].Gain, "top-gain-bits")
	b.ReportMetric(r.Ranking[len(r.Ranking)-1].Gain, "bottom-gain-bits")
}

// BenchmarkE13WebCellular — Figures 1(a)+4: cellular web inference.
func BenchmarkE13WebCellular(b *testing.B) {
	var r expt.E13Result
	for i := 0; i < b.N; i++ {
		r = expt.RunE13(1)
	}
	b.ReportMetric(r.TTFBOnly.MAE, "ttfb-mae")
	b.ReportMetric(r.RadioFlow.MAE, "radioflow-mae")
	b.ReportMetric(r.RadioFlow.Spearman, "radioflow-spearman")
}

// BenchmarkE14SearchSpace — §5: exhaustive vs EONA-guided exploration.
func BenchmarkE14SearchSpace(b *testing.B) {
	var r expt.E14Result
	for i := 0; i < b.N; i++ {
		r = expt.RunE14(1)
	}
	last := r.Points[len(r.Points)-1]
	b.ReportMetric(float64(last.ExhaustiveEvals), "exhaustive-evals")
	b.ReportMetric(float64(last.AscentEvals), "ascent-evals")
	b.ReportMetric(100*last.AscentScore/last.ExhaustiveScore, "ascent-pct-of-optimum")
}
