package lookingglass

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"eona/internal/auth"
	"eona/internal/core"
	"eona/internal/netsim"
)

// countingTransport counts response status codes seen by the client.
type countingTransport struct {
	inner       http.RoundTripper
	ok, notMod  atomic.Int64
	bodiesBytes atomic.Int64
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := c.inner.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		c.ok.Add(1)
	case http.StatusNotModified:
		c.notMod.Add(1)
	}
	return resp, nil
}

func TestConditionalRequests(t *testing.T) {
	mutablePeering := []core.PeeringInfo{
		{PeeringID: "B", CDN: "cdnX", Congestion: netsim.CongestionNone, CapacityBps: 100e6},
	}
	store := auth.NewStore()
	store.Register("tok", "p", auth.ScopeI2APeering)
	srv := NewServer(store, nil, Sources{
		PeeringInfo: func(string) []core.PeeringInfo { return mutablePeering },
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ct := &countingTransport{inner: http.DefaultTransport}
	client := NewClient(ts.URL, "tok", &http.Client{Transport: ct})
	ctx := context.Background()

	// First fetch: full body.
	v1, err := client.PeeringInfo(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if ct.ok.Load() != 1 || ct.notMod.Load() != 0 {
		t.Fatalf("after first fetch: ok=%d notMod=%d", ct.ok.Load(), ct.notMod.Load())
	}

	// Unchanged data: 304s, same result.
	for i := 0; i < 3; i++ {
		v, err := client.PeeringInfo(ctx, "")
		if err != nil {
			t.Fatal(err)
		}
		if len(v) != len(v1) || v[0] != v1[0] {
			t.Fatalf("cached result diverged: %+v", v)
		}
	}
	if ct.notMod.Load() != 3 {
		t.Errorf("notMod = %d, want 3", ct.notMod.Load())
	}

	// Data changes: full body again, new value visible.
	mutablePeering[0].Congestion = netsim.CongestionSevere
	v2, err := client.PeeringInfo(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if v2[0].Congestion != netsim.CongestionSevere {
		t.Errorf("change not observed through cache: %+v", v2[0])
	}
	if ct.ok.Load() != 2 {
		t.Errorf("ok = %d, want 2 (one refetch)", ct.ok.Load())
	}
}

func TestETagHeaderShape(t *testing.T) {
	store := auth.NewStore()
	store.Register("tok", "p", auth.ScopeI2APeering)
	srv := NewServer(store, nil, Sources{
		PeeringInfo: func(string) []core.PeeringInfo { return nil },
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/i2a/peering", nil)
	req.Header.Set("Authorization", "Bearer tok")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	etag := resp.Header.Get("ETag")
	if len(etag) != 18 || etag[0] != '"' || etag[len(etag)-1] != '"' {
		t.Errorf("ETag = %q, want quoted 16-hex-char tag", etag)
	}

	// Raw conditional request returns 304 with empty body.
	req2, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/i2a/peering", nil)
	req2.Header.Set("Authorization", "Bearer tok")
	req2.Header.Set("If-None-Match", etag)
	resp2, err := ts.Client().Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Errorf("status = %d, want 304", resp2.StatusCode)
	}
	body, _ := io.ReadAll(resp2.Body)
	if len(body) != 0 {
		t.Errorf("304 carried a body of %d bytes", len(body))
	}
}

// TestETagGolden pins one served body and its ETag byte for byte. Partners
// cache ETags across releases, so a change to what is hashed — the
// encoder's trailing newline or envelope bytes leaking into the payload
// span — must fail here rather than silently invalidate every cache.
func TestETagGolden(t *testing.T) {
	store := auth.NewStore()
	store.Register("tok", "p", auth.ScopeI2APeering)
	srv := NewServer(store, nil, Sources{PeeringInfo: func(string) []core.PeeringInfo {
		return []core.PeeringInfo{{PeeringID: "B<&>", CDN: "cdnX", Congestion: netsim.CongestionHigh, HeadroomBps: 1e6, CapacityBps: 1e8, Current: true}}
	}})
	srv.Now = func() int64 { return fixedNow }
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/v1/i2a/peering", nil)
	req.Header.Set("Authorization", "Bearer tok")
	srv.Handler().ServeHTTP(rec, req)

	const wantETag = `"1147f5a2280e1162"`
	const wantBody = `{"version":"eona/1","type":"i2a.peering_info","generated_at_ms":1700000000123,` +
		`"payload":[{"peering_id":"B\u003c\u0026\u003e","cdn":"cdnX","congestion":2,"headroom_bps":1000000,"capacity_bps":100000000,"current":true}]}`
	if got := rec.Header().Get("ETag"); got != wantETag {
		t.Errorf("ETag = %s, want %s", got, wantETag)
	}
	if got := rec.Body.String(); got != wantBody {
		t.Errorf("body = %s\nwant   %s", got, wantBody)
	}
}

// TestIfNoneMatchWeakListComparison drives If-None-Match through the server:
// RFC 9110 §13.1.2 weak comparison over a comma-separated list, or "*".
func TestIfNoneMatchWeakListComparison(t *testing.T) {
	store := auth.NewStore()
	store.Register("tok", "p", auth.ScopeI2APeering)
	srv := NewServer(store, nil, Sources{
		PeeringInfo: func(string) []core.PeeringInfo { return []core.PeeringInfo{{PeeringID: "B"}} },
	})
	h := srv.Handler()
	get := func(inm ...string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, "/v1/i2a/peering", nil)
		req.Header.Set("Authorization", "Bearer tok")
		for _, v := range inm {
			req.Header.Add("If-None-Match", v)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	etag := get().Header().Get("ETag")
	if len(etag) != 18 {
		t.Fatalf("ETag = %q", etag)
	}
	cases := []struct {
		name   string
		header []string
		want   int
	}{
		{"single", []string{etag}, http.StatusNotModified},
		{"list-first", []string{etag + `, "a", "b"`}, http.StatusNotModified},
		{"list-middle", []string{`"a",` + etag + ` ,"b"`}, http.StatusNotModified},
		{"list-last", []string{`"a", W/"b",` + etag}, http.StatusNotModified},
		{"weak", []string{"W/" + etag}, http.StatusNotModified},
		{"weak-in-list", []string{`"a", W/` + etag}, http.StatusNotModified},
		{"star", []string{"*"}, http.StatusNotModified},
		{"second-field-line", []string{`"a"`, etag}, http.StatusNotModified},
		{"no-match-list", []string{`"a", W/"b", "0000000000000000"`}, http.StatusOK},
		{"absent", nil, http.StatusOK},
		{"empty", []string{""}, http.StatusOK},
		{"garbage", []string{"garbage"}, http.StatusOK},
		{"unquoted", []string{etag[1 : len(etag)-1]}, http.StatusOK},
		{"unterminated", []string{etag[:len(etag)-1]}, http.StatusOK},
		{"after-garbage", []string{`junk, ` + etag}, http.StatusOK},
		{"star-in-list", []string{`"a", *`}, http.StatusOK},
	}
	for _, tc := range cases {
		rec := get(tc.header...)
		if rec.Code != tc.want {
			t.Errorf("%s: If-None-Match %q: status %d, want %d", tc.name, tc.header, rec.Code, tc.want)
		}
		if tc.want == http.StatusNotModified && rec.Body.Len() != 0 {
			t.Errorf("%s: 304 carried %d body bytes", tc.name, rec.Body.Len())
		}
	}
}

func TestErrorsNotCached(t *testing.T) {
	// 4xx responses must not poison the conditional cache.
	store := auth.NewStore()
	store.Register("tok", "p", auth.ScopeI2APeering)
	srv := NewServer(store, nil, Sources{}) // surface not offered: 404
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := NewClient(ts.URL, "tok", ts.Client())
	for i := 0; i < 2; i++ {
		if _, err := client.PeeringInfo(context.Background(), ""); err == nil {
			t.Fatal("expected 404")
		}
	}
}
