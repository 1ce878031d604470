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
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// summariesRoute serves src's summaries from a Routes registry and returns
// it with a reusable authorized request for it.
func summariesRoute(src func() []core.QoESummary) (*Routes, *http.Request) {
	store := auth.NewStore()
	store.Register("tok", "p", auth.ScopeA2IQoE)
	srv := NewServer(store, nil, Sources{QoESummaries: src})
	req := httptest.NewRequest(http.MethodGet, "/v1/a2i/summaries", nil)
	req.Header.Set("Authorization", "Bearer tok")
	return srv.Routes(), req
}

// changingSummaries serves two summaries128 payloads alternately, which
// differ in every element, so every reply is a memo miss that encodes every
// element: the encode on each serve that BENCH_2026-10-15.json recorded.
func changingSummaries() (*Routes, *http.Request) {
	payloads := [2][]core.QoESummary{summaries128("x"), summaries128("y")}
	calls := 0
	return summariesRoute(func() []core.QoESummary {
		calls++
		return payloads[calls%2]
	})
}

// unchangedSummaries serves one summaries128 payload, so every reply after
// the first comes from the memo.
func unchangedSummaries() (*Routes, *http.Request) {
	v := summaries128("x")
	return summariesRoute(func() []core.QoESummary { return v })
}

// oneChangedSummaries serves a summaries128 payload with one element
// changed per serve, each in turn: a memo miss that encodes one element and
// copies the other 127 from the slot, as on a poll that sees ingest touch a
// few groups.
func oneChangedSummaries() (*Routes, *http.Request) {
	v := summaries128("x")
	calls := 0
	return summariesRoute(func() []core.QoESummary {
		calls++
		v[calls%len(v)].Sessions = float64(calls)
		return v
	})
}

func benchmarkServe(b *testing.B, rt *Routes, req *http.Request) {
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

// BenchmarkServeSummaries is the changed-state reply with every element
// changed: a full encode and one SHA-256 per serve.
func BenchmarkServeSummaries(b *testing.B) {
	rt, req := changingSummaries()
	benchmarkServe(b, rt, req)
}

// BenchmarkServeSummariesUnchanged is the unchanged-state reply: the memo's
// stored payload in a fresh envelope.
func BenchmarkServeSummariesUnchanged(b *testing.B) {
	rt, req := unchangedSummaries()
	benchmarkServe(b, rt, req)
}

// BenchmarkServeSummariesOneChanged is the partial miss: one element
// encoded, 127 copied from the slot, and one SHA-256 per serve.
func BenchmarkServeSummariesOneChanged(b *testing.B) {
	rt, req := oneChangedSummaries()
	benchmarkServe(b, rt, req)
}

// BenchmarkServeSummariesParallel serves one collaborator from concurrent
// clients, whose serves share one slot and its lock. In "OneChanged"
// every serve sees one element changed since the serve before it; in
// "Mixed" one serve in four does and the rest hit. Besides ns/op, the
// inverse of throughput, it reports the latency of a serve.
func BenchmarkServeSummariesParallel(b *testing.B) {
	for _, bc := range []struct {
		name  string
		every uint64
	}{{"OneChanged", 1}, {"Mixed", 4}} {
		b.Run(bc.name, func(b *testing.B) {
			// ring[j] differs from ring[j-1] in element j%128 only.
			ring := make([][]core.QoESummary, 256)
			v := summaries128("x")
			for j := range ring {
				v[j%len(v)].Sessions = float64(1000 + j)
				ring[j] = slices.Clone(v)
			}
			var calls atomic.Uint64
			store := auth.NewStore()
			store.Register("tok", "p", auth.ScopeA2IQoE)
			rt := NewServer(store, nil, Sources{QoESummaries: func() []core.QoESummary {
				return ring[calls.Add(1)/bc.every%uint64(len(ring))]
			}}).Routes()

			var mu sync.Mutex
			var lat []time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				req := httptest.NewRequest(http.MethodGet, "/v1/a2i/summaries", nil)
				req.Header.Set("Authorization", "Bearer tok")
				w := &discardWriter{h: http.Header{}}
				var own []time.Duration
				for pb.Next() {
					start := time.Now()
					rt.ServeHTTP(w, req)
					own = append(own, time.Since(start))
				}
				mu.Lock()
				defer mu.Unlock()
				if w.code != 0 && w.code != http.StatusOK {
					b.Errorf("status %d", w.code)
				}
				lat = append(lat, own...)
			})
			slices.Sort(lat)
			b.ReportMetric(float64(lat[len(lat)/2].Microseconds()), "p50-µs")
			b.ReportMetric(float64(lat[len(lat)*99/100].Microseconds()), "p99-µs")
		})
	}
}

// servedSummaries is the body the summaries route serves for summaries128.
func servedSummaries(tb testing.TB) []byte {
	tb.Helper()
	rt, req := unchangedSummaries()
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		tb.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// decodeSummaries decodes a summaries body as Client.QoESummaries does.
func decodeSummaries(body []byte) ([]core.QoESummary, error) {
	env, err := wire.Decode(body)
	if err != nil {
		return nil, err
	}
	return wire.DecodePayload[[]core.QoESummary](env, wire.TypeQoESummaries)
}

var decodedSummaries []core.QoESummary

func BenchmarkDecodeSummaries(b *testing.B) {
	body := servedSummaries(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if decodedSummaries, err = decodeSummaries(body); err != nil {
			b.Fatal(err)
		}
	}
}

// Decoding n summaries allocates one string per key field, the payload copy
// and the slice, which doubles as it grows: at most 3n plus a small
// constant.
func TestDecodeSummariesAllocs(t *testing.T) {
	body := servedSummaries(t)
	want := summaries128("x")
	got, err := decodeSummaries(body)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded summaries differ from the served ones")
	}
	n := len(want)
	allocs := testing.AllocsPerRun(20, func() {
		decodedSummaries, _ = decodeSummaries(body)
	})
	if limit := float64(3*n + 16); allocs > limit {
		t.Errorf("decoding %d summaries allocates %.0f times, want <= %.0f", n, allocs, limit)
	}
}

// serveAllocs serves n replies after a warm-up and returns the body size
// and the bytes allocated, per reply.
func serveAllocs(rt *Routes, req *http.Request, n int) (body, alloc uint64) {
	w := &discardWriter{h: http.Header{}}
	for i := 0; i < 20; i++ {
		rt.ServeHTTP(w, req)
	}
	w.n = 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		rt.ServeHTTP(w, req)
	}
	runtime.ReadMemStats(&after)
	return uint64(w.n / n), (after.TotalAlloc - before.TotalAlloc) / uint64(n)
}

// A changed-state reply allocates nothing sized to its body, whether every
// element changed or one did: the payload is built into a pooled reply
// buffer and copied into the slot's spare body, whose capacity it reuses.
func TestServeSummariesAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its puts under the race detector")
	}
	for name, route := range map[string]func() (*Routes, *http.Request){
		"all changed": changingSummaries,
		"one changed": oneChangedSummaries,
	} {
		rt, req := route()
		body, per := serveAllocs(rt, req, 200)
		if body < 30<<10 {
			t.Fatalf("%s: served %d bytes per reply, want the ~34 KB body", name, body)
		}
		if per >= 4<<10 {
			t.Errorf("%s: a summaries reply allocates %d B, want < 4 KB (body is %d B)", name, per, body)
		}
	}
}

// An unchanged-state reply from the memo allocates less often than a
// changed one (4 times), since it neither encodes nor hashes, and nothing
// near a body: no encode buffer, no value copy. A reply that re-encodes one
// element allocates no more often than one that encodes them all.
func TestServeSummariesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its puts under the race detector")
	}
	allocs := func(rt *Routes, req *http.Request) float64 {
		w := &discardWriter{h: http.Header{}}
		return testing.AllocsPerRun(100, func() { rt.ServeHTTP(w, req) })
	}
	hit, miss, partial := allocs(unchangedSummaries()), allocs(changingSummaries()), allocs(oneChangedSummaries())
	if hit > 6 || hit >= miss {
		t.Errorf("a memo reply allocates %.0f times, want <= 6 and fewer than a changed reply's %.0f", hit, miss)
	}
	if partial > miss {
		t.Errorf("a one-element miss allocates %.0f times, more than a full miss's %.0f", partial, miss)
	}
	rt, req := unchangedSummaries()
	body, per := serveAllocs(rt, req, 200)
	if body < 30<<10 {
		t.Fatalf("served %d bytes per reply, want the ~34 KB body", body)
	}
	if per >= 1<<10 {
		t.Errorf("a memo reply allocates %d B, want < 1 KB (body is %d B)", per, body)
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
