package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"eona"
	"eona/internal/core"
	"eona/internal/lookingglass"
)

func TestHealthEndpointWithPeer(t *testing.T) {
	store := eona.NewAuthStore()
	store.Register("demo-token", "demo", eona.ScopeAdmin)

	// Partner looking glass (the InfP side we poll).
	peerSrv := eona.NewServer(store, nil, infpSources())
	peerTS := httptest.NewServer(peerSrv.Handler())
	defer peerTS.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	snap := pollPeer(ctx, peerTS.URL, "demo-token", 5*time.Millisecond, nil, nil, nil)

	// Local server with the health endpoint mounted alongside the
	// looking-glass surfaces.
	local := eona.NewServer(store, nil, foldOnlyAppp(t))
	ts := httptest.NewServer(newRouter(local, peerTS.URL, snap, nil, nil))
	defer ts.Close()

	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, _, ok := snap.Get(); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("peer poller never succeeded")
		}
		time.Sleep(2 * time.Millisecond)
	}

	resp, err := http.Get(ts.URL + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("health status = %d", resp.StatusCode)
	}
	var p healthPayload
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		t.Fatal(err)
	}
	if p.Peer != peerTS.URL {
		t.Errorf("peer = %q, want %q", p.Peer, peerTS.URL)
	}
	if p.Breaker != "closed" {
		t.Errorf("breaker = %q, want closed", p.Breaker)
	}
	if p.Polls == 0 || p.Successes == 0 {
		t.Errorf("counters not populated: %+v", p)
	}
	if p.Confidence <= 0.5 {
		t.Errorf("confidence = %v, want fresh (> 0.5)", p.Confidence)
	}
	if p.LastSuccess == nil || p.LastAttempt == nil {
		t.Errorf("timestamps missing: %+v", p)
	}

	// The looking-glass surfaces must still be served through the mux.
	client := eona.NewClient(ts.URL, "demo-token")
	cctx, ccancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer ccancel()
	if sums, err := client.QoESummaries(cctx); err != nil || len(sums) == 0 {
		t.Errorf("looking-glass surface broken behind mux: %v (%d summaries)", err, len(sums))
	}
}

func TestHealthEndpointWithoutPeer(t *testing.T) {
	ts := httptest.NewServer(newRouter(nil, "", nil, nil, nil))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var p healthPayload
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		t.Fatal(err)
	}
	if p.Breaker != "disabled" || p.Peer != "" {
		t.Errorf("no-peer health = %+v, want disabled", p)
	}
}

// A health document that cannot be encoded — here a last success outside
// the years JSON times can carry — is a 500 in the error envelope, not a 200
// with an empty body.
func TestHealthUnencodableIs500(t *testing.T) {
	snap := new(lookingglass.Snapshot[[]core.PeeringInfo])
	snap.Seed(nil, time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC))
	rec := httptest.NewRecorder()
	healthHandler("peer", snap)(rec, httptest.NewRequest(http.MethodGet, "/v1/health", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d body %q, want 500", rec.Code, rec.Body)
	}
	var ee lookingglass.ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &ee); err != nil || ee.Err.Code != http.StatusInternalServerError {
		t.Errorf("body %q is not the error envelope (err %v)", rec.Body, err)
	}
}
