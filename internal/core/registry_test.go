package core

import (
	"sync"
	"testing"
	"time"
)

func TestRegistryGating(t *testing.T) {
	r := NewRegistry()
	r.Register(Partner{
		Name:     "isp-a",
		Policy:   ExportPolicy{MinGroupSessions: 10},
		Surfaces: map[Surface]bool{SurfaceQoESummaries: true},
	})
	if !r.Allowed("isp-a", SurfaceQoESummaries) {
		t.Error("granted surface denied")
	}
	if r.Allowed("isp-a", SurfaceTraffic) {
		t.Error("ungranted surface allowed")
	}
	if r.Allowed("stranger", SurfaceQoESummaries) {
		t.Error("unknown partner allowed")
	}
	p, ok := r.Partner("isp-a")
	if !ok || p.Policy.MinGroupSessions != 10 {
		t.Errorf("Partner = %+v, %v", p, ok)
	}
	if _, ok := r.Partner("stranger"); ok {
		t.Error("unknown partner found")
	}
}

func TestRegistryOptOut(t *testing.T) {
	r := NewRegistry()
	r.Register(Partner{Name: "isp-a", Surfaces: map[Surface]bool{SurfacePeering: true}})
	r.Remove("isp-a")
	if r.Allowed("isp-a", SurfacePeering) {
		t.Error("removed partner still allowed")
	}
	if len(r.Names()) != 0 {
		t.Error("Names nonempty after removal")
	}
}

func TestRegistryPolicyForUnknownIsRestrictive(t *testing.T) {
	r := NewRegistry()
	pol, _ := r.PolicyFor("stranger")
	// The restrictive default must suppress every group.
	col := NewA2ICollector(CollectorConfig{AppP: "vod", Window: time.Minute, Seed: 1})
	for i := 0; i < 100; i++ {
		col.Ingest(rec("isp1", "cdnX", "east", 80, 0, 0))
	}
	if got := col.SummariesUnder(pol, 1); len(got) != 0 {
		t.Errorf("restrictive default leaked %d groups", len(got))
	}
}

func TestRegistryCopySemantics(t *testing.T) {
	r := NewRegistry()
	surfaces := map[Surface]bool{SurfaceQoESummaries: true}
	r.Register(Partner{Name: "p", Surfaces: surfaces})
	surfaces[SurfaceTraffic] = true // caller mutates its map afterwards
	if r.Allowed("p", SurfaceTraffic) {
		t.Error("registry shares the caller's map")
	}
	got, _ := r.Partner("p")
	got.Surfaces[SurfaceAttribution] = true
	if r.Allowed("p", SurfaceAttribution) {
		t.Error("Partner() leaks internal state")
	}
}

func TestRegistryValidationAndString(t *testing.T) {
	r := NewRegistry()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("empty name did not panic")
			}
		}()
		r.Register(Partner{})
	}()
	r.Register(Partner{Name: "b"})
	r.Register(Partner{Name: "a"})
	names := r.Names()
	if len(names) != 2 || names[0] != "a" {
		t.Errorf("Names = %v", names)
	}
	if s := r.String(); s == "" {
		t.Error("empty String")
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				r.Register(Partner{Name: "p", Surfaces: map[Surface]bool{SurfacePeering: true}})
				r.Allowed("p", SurfacePeering)
				r.PolicyFor("p")
				r.Names()
			}
		}(i)
	}
	wg.Wait()
}

func TestSummariesUnderPerPartnerPolicies(t *testing.T) {
	col := NewA2ICollector(CollectorConfig{AppP: "vod", Window: time.Minute, Seed: 1})
	for i := 0; i < 5; i++ {
		col.Ingest(rec("isp1", "cdnX", "east", 77, 0.01, 0))
	}
	col.Ingest(rec("isp1", "cdnY", "west", 40, 0.2, 0))

	// Trusted partner: everything, exactly.
	trusted := col.SummariesUnder(ExportPolicy{}, 1)
	if len(trusted) != 2 || trusted[0].MeanScore != 77 {
		t.Errorf("trusted view = %+v", trusted)
	}
	// Restricted partner: small groups suppressed, scores coarsened.
	restricted := col.SummariesUnder(ExportPolicy{MinGroupSessions: 3, CoarsenScoreStep: 10}, 2)
	if len(restricted) != 1 {
		t.Fatalf("restricted view has %d groups, want 1", len(restricted))
	}
	if restricted[0].MeanScore != 70 {
		t.Errorf("restricted score = %v, want coarsened 70", restricted[0].MeanScore)
	}
	// The collector's own policy is untouched.
	if own := col.Summaries(); len(own) != 2 {
		t.Errorf("own view changed: %d groups", len(own))
	}
}
