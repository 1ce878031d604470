package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"eona"
	"eona/internal/core"
	"eona/internal/ctlplane"
	"eona/internal/faults"
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
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(doc))
	for k := range doc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want := []string{"confidence", "consecutive_failures", "failures", "last_attempt", "last_success", "peer", "retries", "successes"}
	if !reflect.DeepEqual(keys, want) {
		t.Errorf("health keys = %v, want %v", keys, want)
	}
	var p healthPayload
	if err := json.Unmarshal(body, &p); err != nil {
		t.Fatal(err)
	}
	if p.Peer != peerTS.URL {
		t.Errorf("peer = %q, want %q", p.Peer, peerTS.URL)
	}
	if p.Successes == 0 {
		t.Errorf("counters not populated: %s", body)
	}
	if p.Confidence <= 0.5 {
		t.Errorf("confidence = %v, want fresh (> 0.5)", p.Confidence)
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
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(string(body)); got != "{}" {
		t.Errorf("no-peer health = %s, want {}", got)
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

// TestPartnerImpairmentGatesPeerPoll drives the product's partner chain end
// to end: impairments POSTed to the control plane reach the real poller that
// pollPeer starts against an InfP peer. An outage fails its polls with
// ErrPartnerDown, /v1/health counts the failures, and the last good hints
// stay; after DELETE a poll succeeds and confidence is fresh again; a 50 ms
// latency spike delays every attempt.
func TestPartnerImpairmentGatesPeerPoll(t *testing.T) {
	store := eona.NewAuthStore()
	store.Register("demo-token", "demo", eona.ScopeAdmin)
	peerTS := httptest.NewServer(eona.NewServer(store, nil, infpSources()).Handler())
	defer peerTS.Close()

	eng, _, _, _, err := buildEngine(nil)
	if err != nil {
		t.Fatal(err)
	}
	shared, topo, err := buildDemoNetwork(eng, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer shared.Close()
	ctl, err := ctlplane.New(ctlplane.Config{Shared: shared, Topo: topo, Engine: eng, Clock: faults.WallClock(time.Now())})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	snap := pollPeer(ctx, peerTS.URL, "demo-token", 5*time.Millisecond, nil, nil, ctl)
	ts := httptest.NewServer(newRouter(eona.NewServer(store, nil, foldOnlyAppp(t)), peerTS.URL, snap, nil, ctl))
	defer ts.Close()

	call := func(method, path, body string) []byte {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer demo-token")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode/100 != 2 {
			t.Fatalf("%s %s: %d %s", method, path, resp.StatusCode, b)
		}
		return b
	}
	health := func() healthPayload {
		t.Helper()
		var p healthPayload
		if err := json.Unmarshal(call("GET", "/v1/health", ""), &p); err != nil {
			t.Fatal(err)
		}
		return p
	}
	impair := func(body string) int {
		t.Helper()
		var imp ctlplane.Impairment
		if err := json.Unmarshal(call("POST", "/v1/impairments", body), &imp); err != nil {
			t.Fatal(err)
		}
		return imp.ID
	}
	waitUntil := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}

	waitUntil("a first successful poll", func() bool { _, _, ok := snap.Get(); return ok })
	good, _, _ := snap.Get()

	out := impair(`{"kind":"partner-outage"}`)
	before := health().Failures
	waitUntil("ErrPartnerDown", func() bool { return errors.Is(snap.Err(), ctlplane.ErrPartnerDown) })
	waitUntil("health to count outage failures", func() bool { return health().Failures > before })
	if v, _, ok := snap.Get(); !ok || !reflect.DeepEqual(v, good) {
		t.Errorf("last good hints lost during the outage: %+v, %v", v, ok)
	}

	call("DELETE", fmt.Sprintf("/v1/impairments?id=%d", out), "")
	successes := health().Successes
	waitUntil("a poll after DELETE", func() bool { return snap.Err() == nil && health().Successes > successes })
	waitUntil("confidence near 1", func() bool { return health().Confidence > 0.9 })

	spike := impair(`{"kind":"latency-spike","extra":"50ms"}`)
	posted := time.Now()
	// Attempt k starts after attempt k-1 finished; once k-1 finished after
	// the POST, attempt k sleeps the spike before it fetches.
	var prev time.Time
	waitUntil("an attempt after the spike", func() bool { prev, _ = snap.LastAttempt(); return prev.After(posted) })
	var next time.Time
	waitUntil("the next attempt", func() bool { next, _ = snap.LastAttempt(); return next.After(prev) })
	if gap := next.Sub(prev); gap < 50*time.Millisecond {
		t.Errorf("attempts %v apart under a 50ms latency spike", gap)
	}
	if err := snap.Err(); err != nil {
		t.Errorf("a delayed attempt failed: %v", err)
	}
	call("DELETE", fmt.Sprintf("/v1/impairments?id=%d", spike), "")
}
