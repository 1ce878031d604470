package lookingglass

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"eona/internal/auth"
	"eona/internal/core"
	"eona/internal/wire"
)

const fixedNow = 1_700_000_000_123

// An encode failure answers with the unified JSON error envelope, and the
// pooled buffer it abandoned does not leak into the next reply.
func TestEncodeFailureSpeaksErrorEnvelope(t *testing.T) {
	good := []core.PeeringInfo{{PeeringID: "B", CDN: "cdnX", HeadroomBps: 1e6, CapacityBps: 1e8}}
	bad := []core.PeeringInfo{{PeeringID: "B", CDN: "cdnX", HeadroomBps: math.Inf(1), CapacityBps: 1e8}}
	var failing atomic.Bool
	store := auth.NewStore()
	store.Register("tok", "p", auth.ScopeI2APeering)
	srv := NewServer(store, nil, Sources{PeeringInfo: func(string) []core.PeeringInfo {
		if failing.Load() {
			return bad
		}
		return good
	}})
	srv.Now = func() int64 { return fixedNow }
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	get := func() (*http.Response, []byte) {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/i2a/peering", nil)
		req.Header.Set("Authorization", "Bearer tok")
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp, body
	}

	failing.Store(true)
	resp, body := get()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	if resp.Header.Get("ETag") != "" {
		t.Error("a failed encode carried an ETag")
	}
	var ee ErrorEnvelope
	if err := json.Unmarshal(body, &ee); err != nil || ee.Err.Code != http.StatusInternalServerError || ee.Err.Message == "" {
		t.Errorf("body %q is not the error envelope (err %v)", body, err)
	}
	_, err := NewClient(ts.URL, "tok", ts.Client()).PeeringInfo(context.Background(), "")
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusInternalServerError {
		t.Errorf("client err = %v, want *StatusError 500", err)
	}

	failing.Store(false)
	want, err := wire.Encode(wire.TypePeeringInfo, fixedNow, good)
	if err != nil {
		t.Fatal(err)
	}
	if resp, body := get(); resp.StatusCode != http.StatusOK || string(body) != string(want) {
		t.Errorf("next reply: status %d body %q, want 200 %q", resp.StatusCode, body, want)
	}
}

// summaries128 is a 128-group summaries payload, ~34 KB encoded: the size
// the A2I summaries route serves on the bench node.
func summaries128(tag string) []core.QoESummary {
	out := make([]core.QoESummary, 128)
	for i := range out {
		out[i] = core.QoESummary{
			Key: core.SummaryKey{
				ClientISP: fmt.Sprintf("isp-%s-%d", tag, i%8),
				CDN:       fmt.Sprintf("cdn-%d", i/8%4),
				Cluster:   fmt.Sprintf("cluster-%d", i/32),
			},
			Sessions:           float64(100 + i),
			MeanScore:          60 + float64(i)/7,
			MeanBufferingRatio: 0.01 * float64(i%13) / 3,
			MeanBitrateBps:     2.5e6 + float64(i)*1234.5,
			MeanStartupSec:     0.8 + float64(i%5)/9,
			AbandonmentRate:    float64(i%11) / 97,
		}
	}
	return out
}

// discardWriter is a ResponseWriter that keeps the status and drops the body.
type discardWriter struct {
	h    http.Header
	code int
	n    int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) WriteHeader(code int)        { d.code = code }
func (d *discardWriter) Write(p []byte) (int, error) { d.n += len(p); return len(p), nil }

// summariesRoute serves summaries128 from a Routes registry and returns it
// with a reusable authorized request for it.
func summariesRoute() (*Routes, *http.Request) {
	payload := summaries128("x")
	store := auth.NewStore()
	store.Register("tok", "p", auth.ScopeA2IQoE)
	srv := NewServer(store, nil, Sources{QoESummaries: func() []core.QoESummary { return payload }})
	req := httptest.NewRequest(http.MethodGet, "/v1/a2i/summaries", nil)
	req.Header.Set("Authorization", "Bearer tok")
	return srv.Routes(), req
}

func BenchmarkServeSummaries(b *testing.B) {
	rt, req := summariesRoute()
	w := &discardWriter{h: http.Header{}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.n = 0
		rt.ServeHTTP(w, req)
	}
	if w.code != 0 && w.code != http.StatusOK || w.n == 0 {
		b.Fatalf("status %d, %d bytes", w.code, w.n)
	}
	b.SetBytes(int64(w.n))
}

// A reply allocates nothing sized to its body: the envelope is encoded once
// into a pooled buffer.
func TestServeSummariesAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its puts under the race detector")
	}
	rt, req := summariesRoute()
	w := &discardWriter{h: http.Header{}}
	for i := 0; i < 20; i++ {
		rt.ServeHTTP(w, req)
	}
	const n = 200
	w.n = 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		rt.ServeHTTP(w, req)
	}
	runtime.ReadMemStats(&after)
	body := w.n / n
	if body < 30<<10 {
		t.Fatalf("served %d bytes per reply, want the ~34 KB body", body)
	}
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= 4<<10 {
		t.Errorf("a summaries reply allocates %d B, want < 4 KB (body is %d B)", per, body)
	}
}

// Concurrent clients, each served its own partner's payload, always read
// exactly their own bytes: a pooled buffer handed on while still being
// written would show up here as a mixed body, and under -race as a race.
func TestPooledRepliesConcurrentClients(t *testing.T) {
	const clients, requests = 8, 40
	store := auth.NewStore()
	payloads := map[string][]core.QoESummary{}
	for c := 0; c < clients; c++ {
		partner := fmt.Sprintf("p%d", c)
		store.Register("tok-"+partner, partner, auth.ScopeA2IQoE)
		payloads[partner] = summaries128(partner)
	}
	srv := NewServer(store, nil, Sources{QoESummariesFor: func(partner string) []core.QoESummary { return payloads[partner] }})
	srv.Now = func() int64 { return fixedNow }
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		partner := fmt.Sprintf("p%d", c)
		want, err := wire.Encode(wire.TypeQoESummaries, fixedNow, payloads[partner])
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < requests; i++ {
				req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/a2i/summaries", nil)
				req.Header.Set("Authorization", "Bearer tok-"+partner)
				resp, err := ts.Client().Do(req)
				if err != nil {
					errs <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || string(body) != string(want) {
					errs <- fmt.Errorf("%s request %d: read %d bytes (err %v), not its own %d-byte body",
						partner, i, len(body), err, len(want))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
