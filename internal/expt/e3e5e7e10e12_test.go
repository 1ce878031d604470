package expt

import (
	"testing"
	"time"
)

func TestE3InferenceIsImperfect(t *testing.T) {
	r := RunE3(1)
	if e3Samples < 100 {
		t.Fatalf("corpus too small: %d", e3Samples)
	}
	// The paper's point: inference from network metrics carries real
	// error, unlike direct measurement (0 by construction).
	if r.LinReg.MAE < 2 {
		t.Errorf("OLS MAE = %v — suspiciously perfect; the inference gap should be visible", r.LinReg.MAE)
	}
	if r.KNN.MAE < 2 {
		t.Errorf("kNN MAE = %v — suspiciously perfect", r.KNN.MAE)
	}
	// But the features are not useless either: rank correlation should
	// be clearly positive (ISPs do get *signal*, just not truth).
	if r.LinReg.Spearman < 0.3 && r.KNN.Spearman < 0.3 {
		t.Errorf("both Spearman correlations weak (%v, %v) — corpus degenerate?",
			r.LinReg.Spearman, r.KNN.Spearman)
	}
	// Errors should be material relative to natural spread but below it
	// (a regressor worse than predicting the mean would be broken).
	if r.LinReg.RMSE >= r.ScoreStdDev*1.1 {
		t.Errorf("OLS RMSE %v not better than trivial predictor (std %v)", r.LinReg.RMSE, r.ScoreStdDev)
	}
}

func TestE3TableRenders(t *testing.T) {
	s := RunE3(2).Table().String()
	for _, want := range []string{"OLS", "7-NN", "direct A2I measurement"} {
		if !contains(s, want) {
			t.Errorf("table missing %q", want)
		}
	}
}

func TestE5PolicyOrdering(t *testing.T) {
	r := RunE5(1)
	byName := map[string]E5Arm{}
	for _, a := range r.Arms {
		byName[a.Name] = a
	}
	always := byName["always-on"]
	conservative := byName["util-conservative (+50%)"]
	aggressive := byName["util-aggressive (+5%)"]
	a2i := byName["A2I feedback (+15% & QoE target)"]

	if always.EnergyPct != 100 {
		t.Errorf("always-on energy = %v, want 100", always.EnergyPct)
	}
	// The paper's dichotomy: conservative wastes energy, aggressive
	// hurts QoE.
	if conservative.EnergyPct <= a2i.EnergyPct {
		t.Errorf("conservative energy (%v) should exceed A2I feedback (%v)",
			conservative.EnergyPct, a2i.EnergyPct)
	}
	if aggressive.MeanScore >= a2i.MeanScore {
		t.Errorf("aggressive QoE (%v) should fall below A2I feedback (%v)",
			aggressive.MeanScore, a2i.MeanScore)
	}
	if aggressive.OverloadEpochs == 0 {
		t.Error("aggressive policy never overloaded — scenario too easy")
	}
	// A2I feedback ≈ always-on QoE (within 3 points) at much less energy.
	if a2i.MeanScore < always.MeanScore-3 {
		t.Errorf("A2I QoE (%v) too far below always-on (%v)", a2i.MeanScore, always.MeanScore)
	}
	if a2i.EnergyPct > 80 {
		t.Errorf("A2I energy (%v%%) saves too little", a2i.EnergyPct)
	}
}

func TestE5Deterministic(t *testing.T) {
	a, b := RunE5(7), RunE5(7)
	for i := range a.Arms {
		if a.Arms[i].MeanScore != b.Arms[i].MeanScore || a.Arms[i].EnergyPct != b.Arms[i].EnergyPct {
			t.Fatal("E5 not deterministic")
		}
	}
	if s := RunE5(1).Table().String(); !contains(s, "always-on") {
		t.Error("table malformed")
	}
}

func TestE10EONAEqualizesUsers(t *testing.T) {
	r := RunE10(1)
	if r.EONA.JainPerUser <= r.Baseline.JainPerUser {
		t.Errorf("EONA Jain (%v) not above baseline (%v)", r.EONA.JainPerUser, r.Baseline.JainPerUser)
	}
	if r.EONA.JainPerUser < 0.999 {
		t.Errorf("EONA Jain = %v, want ≈1 (uniform per-user rates)", r.EONA.JainPerUser)
	}
	// Baseline per-pipe fairness gives the small AppP's users more than
	// the big AppP's users.
	big := r.Baseline.AppPs[0].DeliveredPerUserBps
	small := r.Baseline.AppPs[2].DeliveredPerUserBps
	if small <= big {
		t.Errorf("baseline should favor small AppP users: big=%v small=%v", big, small)
	}
}

func TestE10CapacityConserved(t *testing.T) {
	for _, arm := range []E10Arm{RunE10(1).Baseline, RunE10(1).EONA} {
		total := 0.0
		for _, a := range arm.AppPs {
			total += a.DeliveredPerUserBps * a.Sessions
			if a.DeliveredPerUserBps > e10Nominal+1e-9 {
				t.Errorf("%s: %s per-user rate %v exceeds nominal", arm.Name, a.Name, a.DeliveredPerUserBps)
			}
		}
		if total > e10Capacity+1e-6 {
			t.Errorf("%s: allocated %v exceeds capacity %v", arm.Name, total, e10Capacity)
		}
	}
}

func TestE10TableRenders(t *testing.T) {
	if s := RunE10(1).Table().String(); !contains(s, "Jain") {
		t.Error("table malformed")
	}
}

func TestE12CausalAttributesRankTop(t *testing.T) {
	r := RunE12(1)
	if len(r.Ranking) != 4 {
		t.Fatalf("ranking has %d entries", len(r.Ranking))
	}
	top2 := map[string]bool{r.Ranking[0].Attribute: true, r.Ranking[1].Attribute: true}
	if !top2["cdn"] || !top2["isp"] {
		t.Errorf("top-2 attributes = %v,%v; want cdn and isp",
			r.Ranking[0].Attribute, r.Ranking[1].Attribute)
	}
	// The causal attributes must carry clearly more information than
	// the noise attributes.
	causalMin := r.Ranking[1].Gain
	noiseMax := r.Ranking[2].Gain
	if causalMin < 2*noiseMax && causalMin < noiseMax+0.1 {
		t.Errorf("causal gain (%v) not clearly above noise gain (%v)", causalMin, noiseMax)
	}
}

func TestE12TableRenders(t *testing.T) {
	if s := RunE12(1).Table().String(); !contains(s, "information gain") {
		t.Error("table malformed")
	}
}

func TestE7PipelineMeetsPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement")
	}
	r := RunE7(100_000)
	// "Tens of millions of sessions each day" needs only ~400/s
	// sustained; require two orders of magnitude headroom.
	if r.CollectorPerSec < 40_000 {
		t.Errorf("collector ingest = %v rec/s, below required headroom", r.CollectorPerSec)
	}
	if r.SketchAddPerSec < 100_000 {
		t.Errorf("sketch adds = %v ops/s, suspiciously slow", r.SketchAddPerSec)
	}
	if r.QueryP50 <= 0 || r.QueryP50 > time.Second {
		t.Errorf("query p50 = %v, out of sane range", r.QueryP50)
	}
	// The table is the paper's claim and nothing else: the four pipeline
	// stages, with the implied sessions/day on the ingest row.
	tb := r.Table()
	stages := []string{
		"Collector.Ingest (full rollup)",
		"count-min sketch add",
		"P² quantile add",
		"looking-glass query (loopback)",
	}
	if len(tb.Rows) != len(stages) {
		t.Fatalf("table has %d rows, want the %d stage rows:\n%s", len(tb.Rows), len(stages), tb)
	}
	for i, want := range stages {
		if tb.Rows[i][0] != want {
			t.Errorf("row %d stage = %q, want %q", i, tb.Rows[i][0], want)
		}
	}
	if !contains(tb.Rows[0][2], "sessions/day") {
		t.Errorf("ingest row note = %q, want the implied sessions/day", tb.Rows[0][2])
	}
	if len(tb.Notes) != 1 || !contains(tb.Notes[0], "sessions each day") {
		t.Errorf("notes = %q, want only the paper's sessions/day claim", tb.Notes)
	}
}
