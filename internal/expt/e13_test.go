package expt

import "testing"

func TestE13InferenceGap(t *testing.T) {
	r := RunE13(1)
	if e13Samples < 400 {
		t.Fatalf("corpus too small: %d", e13Samples)
	}
	// Both operator-side estimators carry material error vs the direct
	// measurement's zero.
	if r.TTFBOnly.MAE < 2 {
		t.Errorf("TTFB-proxy MAE = %v, suspiciously perfect", r.TTFBOnly.MAE)
	}
	if r.RadioFlow.MAE < 1 {
		t.Errorf("radio+flow MAE = %v, suspiciously perfect", r.RadioFlow.MAE)
	}
	// Richer operator features beat the single TTFB proxy — the reason
	// operators keep investing in inference — yet stay short of truth.
	if r.RadioFlow.MAE >= r.TTFBOnly.MAE {
		t.Errorf("radio+flow MAE (%v) should beat TTFB-only (%v)",
			r.RadioFlow.MAE, r.TTFBOnly.MAE)
	}
	if r.RadioFlow.Spearman <= r.TTFBOnly.Spearman {
		t.Errorf("radio+flow Spearman (%v) should beat TTFB-only (%v)",
			r.RadioFlow.Spearman, r.TTFBOnly.Spearman)
	}
	if r.RadioFlow.Spearman < 0.4 {
		t.Errorf("radio+flow Spearman = %v — the features should carry real signal", r.RadioFlow.Spearman)
	}
}

func TestE13AbortsExist(t *testing.T) {
	r := RunE13(1)
	// Poor radio and heavy pages must produce some abandoned loads —
	// the score-0 mass that makes inference hard.
	if r.AbortRate <= 0 || r.AbortRate > 0.5 {
		t.Errorf("abort rate = %v, want in (0, 0.5]", r.AbortRate)
	}
}

func TestE13Deterministic(t *testing.T) {
	a, b := RunE13(9), RunE13(9)
	if a.TTFBOnly.MAE != b.TTFBOnly.MAE || a.RadioFlow.RMSE != b.RadioFlow.RMSE {
		t.Error("E13 not deterministic per seed")
	}
}

func TestE13TableRenders(t *testing.T) {
	s := RunE13(1).Table().String()
	for _, want := range []string{"TTFB proxy", "radio + flow", "direct A2I"} {
		if !contains(s, want) {
			t.Errorf("table missing %q", want)
		}
	}
}
