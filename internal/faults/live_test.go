package faults_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"eona/internal/auth"
	"eona/internal/ctlplane"
	"eona/internal/faults"
	"eona/internal/lookingglass"
	"eona/internal/netsim"
)

// TestLiveGate pins the fetch gate a running node puts on its partner
// exchange, whose live faults are control-plane impairments on a WallClock:
// outage → ErrPartnerDown, DELETE → passthrough, spike → a delay that ends
// with the fetch's context; a nil control plane gates nothing.
func TestLiveGate(t *testing.T) {
	topo := netsim.NewTopology()
	topo.AddLink("a", "b", 100e6, 5*time.Millisecond, "access")
	shared := netsim.NewShared(netsim.NewNetwork(topo), netsim.SharedConfig{})
	t.Cleanup(func() { shared.Close() })
	srv, err := ctlplane.New(ctlplane.Config{Shared: shared, Topo: topo, Clock: faults.WallClock(time.Now())})
	if err != nil {
		t.Fatal(err)
	}
	store := auth.NewStore()
	store.Register("writer-token", "writer", auth.ScopeCtlWrite)
	rt := lookingglass.NewRoutes(store, nil)
	srv.Register(rt)
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	do := func(method, query, body string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+"/v1/impairments"+query, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer writer-token")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	calls := 0
	fetch := func(context.Context) (int, error) { calls++; return 42, nil }
	gated := ctlplane.Gate(srv, fetch)

	if v, err := gated(context.Background()); err != nil || v != 42 {
		t.Fatalf("clean gate = %d, %v", v, err)
	}
	if resp := do("POST", "", `{"kind":"partner-outage"}`); resp.StatusCode != http.StatusCreated {
		t.Fatalf("inject outage: %d", resp.StatusCode)
	}
	if _, err := gated(context.Background()); !errors.Is(err, ctlplane.ErrPartnerDown) {
		t.Fatalf("outage gate err = %v, want ErrPartnerDown", err)
	}
	// IDs count from 1: the outage is impairment 1.
	if resp := do("DELETE", "?id=1", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("restore outage: %d", resp.StatusCode)
	}
	if v, err := gated(context.Background()); err != nil || v != 42 {
		t.Fatalf("post-restore gate = %d, %v", v, err)
	}
	if calls != 2 {
		t.Errorf("underlying fetch ran %d times, want 2", calls)
	}

	// A spike's delay respects context cancellation.
	if resp := do("POST", "", `{"kind":"latency-spike","extra":"1h"}`); resp.StatusCode != http.StatusCreated {
		t.Fatalf("inject spike: %d", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := gated(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("spiked gate err = %v, want deadline exceeded", err)
	}
	if calls != 2 {
		t.Errorf("a fetch ran through a spike its context did not outlast")
	}

	if v, err := ctlplane.Gate[int](nil, fetch)(context.Background()); err != nil || v != 42 {
		t.Errorf("nil control plane gate = %d, %v", v, err)
	}
}
