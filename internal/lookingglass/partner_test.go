package lookingglass

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"eona/internal/auth"
	"eona/internal/core"
)

// newHTTPTestServer serves srv over loopback and returns its base URL.
func newHTTPTestServer(t *testing.T, srv *Server) string {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// Per-partner exports end to end: two collaborators with different tokens
// query the same endpoint and receive differently-blinded views, wired
// through a core.Registry.
func TestPerPartnerBlindedExports(t *testing.T) {
	col := core.NewA2ICollector(core.CollectorConfig{AppP: "vod", Window: time.Minute, Seed: 1})
	for i := 0; i < 5; i++ {
		col.Ingest(core.QoERecord{ClientISP: "isp1", CDN: "cdnX", Cluster: "east", Score: 77, PlayTime: 10 * time.Minute})
	}
	col.Ingest(core.QoERecord{ClientISP: "isp1", CDN: "cdnY", Cluster: "west", Score: 40, PlayTime: 10 * time.Minute})

	reg := core.NewRegistry()
	reg.Register(core.Partner{
		Name:      "trusted-isp",
		Policy:    core.ExportPolicy{},
		NoiseSeed: 1,
		Surfaces:  map[core.Surface]bool{core.SurfaceQoESummaries: true},
	})
	reg.Register(core.Partner{
		Name:      "restricted-isp",
		Policy:    core.ExportPolicy{MinGroupSessions: 3, CoarsenScoreStep: 10},
		NoiseSeed: 2,
		Surfaces:  map[core.Surface]bool{core.SurfaceQoESummaries: true},
	})

	store := auth.NewStore()
	store.Register("tok-trusted", "trusted-isp", auth.ScopeA2IQoE)
	store.Register("tok-restricted", "restricted-isp", auth.ScopeA2IQoE)
	srv := NewServer(store, nil, Sources{
		QoESummariesFor: func(partner string) []core.QoESummary {
			if !reg.Allowed(partner, core.SurfaceQoESummaries) {
				return nil
			}
			pol, seed := reg.PolicyFor(partner)
			return col.SummariesUnder(pol, seed)
		},
	})
	ts := newHTTPTestServer(t, srv)
	ctx := context.Background()

	trusted, err := NewClient(ts, "tok-trusted", nil).QoESummaries(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(trusted) != 2 || trusted[0].MeanScore != 77 {
		t.Errorf("trusted view = %+v", trusted)
	}

	restricted, err := NewClient(ts, "tok-restricted", nil).QoESummaries(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(restricted) != 1 {
		t.Fatalf("restricted view has %d groups, want 1 (small group suppressed)", len(restricted))
	}
	if restricted[0].MeanScore != 70 {
		t.Errorf("restricted score = %v, want 70 (coarsened)", restricted[0].MeanScore)
	}
}

func TestPerPartnerVariantPreferredOverPlain(t *testing.T) {
	store := auth.NewStore()
	store.Register("tok", "partner-x", auth.ScopeA2IQoE)
	var sawPartner string
	srv := NewServer(store, nil, Sources{
		QoESummaries: func() []core.QoESummary {
			t.Error("plain variant called despite per-partner variant present")
			return nil
		},
		QoESummariesFor: func(partner string) []core.QoESummary {
			sawPartner = partner
			return nil
		},
	})
	ts := newHTTPTestServer(t, srv)
	if _, err := NewClient(ts, "tok", nil).QoESummaries(context.Background()); err != nil {
		t.Fatal(err)
	}
	if sawPartner != "partner-x" {
		t.Errorf("partner passed through = %q, want partner-x", sawPartner)
	}
}
