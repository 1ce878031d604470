package eona_test

import (
	"context"
	"testing"
	"time"

	"eona"
)

// The facade tests exercise the public API exactly the way a downstream
// user would, end to end.

func TestFacadeRecipe(t *testing.T) {
	iface, err := eona.Figure5Recipe().WideInterface()
	if err != nil {
		t.Fatal(err)
	}
	if iface.Size() != 5 {
		t.Errorf("wide interface size = %d, want 5", iface.Size())
	}
	narrow := iface.Narrow("peering_congestion", "qoe_per_cdn")
	if narrow.Size() != 2 {
		t.Errorf("narrow size = %d", narrow.Size())
	}
}

func TestFacadeCollectorToLookingGlass(t *testing.T) {
	// AppP side: collect sessions.
	col := eona.NewA2ICollector(eona.CollectorConfig{
		AppP:   "vod",
		Policy: eona.ExportPolicy{MinGroupSessions: 2},
		Window: time.Minute,
		Seed:   1,
	})
	model := eona.DefaultModel()
	for i := 0; i < 5; i++ {
		m := eona.SessionMetrics{PlayTime: 10 * time.Minute, AvgBitrate: 2e6, StartupDelay: time.Second}
		col.Ingest(eona.RecordFrom(model, m, "s", "vod", "isp1", "cdnX", "east", time.Duration(i)*time.Second))
	}

	// Export over a looking glass with scoped access.
	store := eona.NewAuthStore()
	store.Register("isp1-token", "isp1", eona.ScopeA2IQoE)
	srv := eona.NewServer(store, eona.NewRateLimiter(100, 10), eona.Sources{
		QoESummaries: col.Summaries,
	})
	ts := newTestHTTP(t, srv)

	// InfP side: query it.
	client := eona.NewClient(ts, "isp1-token")
	sums, err := client.QoESummaries(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 1 || sums[0].Key.CDN != "cdnX" || sums[0].Sessions != 5 {
		t.Errorf("summaries = %+v", sums)
	}
}

func TestFacadeDelayed(t *testing.T) {
	d := eona.NewDelayed[eona.Attribution](time.Minute)
	d.Set(0, eona.Attribution{Segment: eona.SegmentAccess})
	if _, ok := d.Get(30 * time.Second); ok {
		t.Error("value visible before the interface delay")
	}
	att, ok := d.Get(time.Minute)
	if !ok || att.Segment != eona.SegmentAccess {
		t.Errorf("Get = %+v, %v", att, ok)
	}
}

func TestFacadeExperimentsRender(t *testing.T) {
	// The cheap experiments, through the public API.
	for _, id := range []string{"E2", "E10"} {
		tb, ok := eona.RunExperiment(id, eona.ExperimentConfig{Seed: 1})
		if !ok || len(tb.String()) == 0 {
			t.Errorf("%s table empty (found=%v)", id, ok)
		}
	}
	if s := eona.RunEnergySavingConfig(eona.ExperimentConfig{Seed: 1}).Table().String(); len(s) == 0 {
		t.Error("energy table empty")
	}
}

// TestFacadeExperimentRegistry pins the registry path and its equivalence
// with the typed scenario runners.
func TestFacadeExperimentRegistry(t *testing.T) {
	defs := eona.Experiments()
	if len(defs) != 15 {
		t.Fatalf("registry lists %d experiments, want 15", len(defs))
	}
	e2, ok := eona.LookupExperiment("E2")
	if !ok {
		t.Fatal("E2 missing from registry")
	}
	if _, ok := eona.RunExperiment("E99", eona.ExperimentConfig{}); ok {
		t.Error("RunExperiment accepted an unknown ID")
	}
	tb, ok := eona.RunExperiment("E2", eona.ExperimentConfig{Seed: 3})
	if !ok {
		t.Fatal("RunExperiment(E2) not found")
	}
	// E2 is the baseline-vs-EONA Figure 5 pair; composing it from the
	// typed scenario runners must render the identical table.
	base := eona.ScenarioConfig{Seed: 3, AppPMode: eona.ModeBaseline, InfPMode: eona.ModeBaseline}
	withEONA := eona.ScenarioConfig{Seed: 3, AppPMode: eona.ModeEONA, InfPMode: eona.ModeEONA}
	r := eona.OscillationResult{
		Baseline: eona.RunScenario(base),
		EONA:     eona.RunScenario(withEONA),
		Oracle:   eona.ScenarioOracle(withEONA),
	}
	if want := r.Table().String(); tb.String() != want {
		t.Error("registry E2 table differs from the typed scenario composition")
	}
	out := eona.RunExperiments([]eona.ExperimentDef{e2}, eona.ExperimentConfig{Seed: 3}, 1)
	if len(out) != 1 || out[0].String() != tb.String() {
		t.Error("RunExperiments([E2]) differs from RunExperiment(E2)")
	}
}

// TestFacadeCollectorConfig pins the config constructor's output shape
// through the facade.
func TestFacadeCollectorConfig(t *testing.T) {
	cfg := eona.CollectorConfig{AppP: "vod", Window: time.Minute, Seed: 1}
	col := eona.NewA2ICollector(cfg)
	model := eona.DefaultModel()
	for i := 0; i < 4; i++ {
		m := eona.SessionMetrics{PlayTime: 5 * time.Minute, AvgBitrate: 3e6}
		col.Ingest(eona.RecordFrom(model, m, "s", "vod", "isp1", "cdnX", "east", time.Duration(i)*time.Second))
	}
	sums := col.Summaries()
	if len(sums) != 1 || sums[0].Key.CDN != "cdnX" || sums[0].Sessions != 4 {
		t.Errorf("config-built summaries = %+v", sums)
	}
}

// TestFacadeSharedNetwork drives the concurrency surface end to end
// through the facade: topology, shared wrapper, snapshot reads.
func TestFacadeSharedNetwork(t *testing.T) {
	topo := eona.NewTopology()
	l := topo.AddLink("a", "b", 10e6, time.Millisecond, "link")
	s := eona.NewSharedNetwork(eona.NewNetwork(topo), eona.SharedConfig{})
	f := s.StartFlow(eona.NetworkPath{l}, 4e6, "t")
	sn := s.Snapshot()
	if got, ok := sn.Flow(f.ID); !ok || got.Rate != 4e6 {
		t.Errorf("snapshot flow = %+v, %v", got, ok)
	}
	if sn.Utilization(l.ID) != 0.4 {
		t.Errorf("utilization = %v, want 0.4", sn.Utilization(l.ID))
	}
	if sn.Congestion(l.ID) != eona.CongestionNone {
		t.Errorf("congestion = %v", sn.Congestion(l.ID))
	}
	s.Close()
}

func TestFacadePolicies(t *testing.T) {
	var appP eona.AppPPolicy = &eona.BaselineAppP{Threshold: 60}
	var infP eona.InfPPolicy = &eona.EONAInfP{Margin: 0.1, HighWater: 0.9}
	if appP == nil || infP == nil {
		t.Fatal("policy interfaces not satisfied")
	}
}
