package lookingglass

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"eona/internal/auth"
	"eona/internal/core"
	"eona/internal/wire"
)

// shaETag is the ETag formula the server has always used: the first eight
// bytes of the SHA-256 of the payload as json.Marshal writes it, in hex.
func shaETag(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return `"` + hex.EncodeToString(sum[:8]) + `"`
}

// memoRoute is one A2I route under test: its path, message type, a value
// per tag, a way to set one float in an element, and the per-partner
// Sources serving a scripted value.
type memoRoute[E any] struct {
	path    string
	t       wire.MessageType
	scope   auth.Scope
	value   func(tag string) []E
	setF    func(e *E, x float64)
	sources func(get func(partner string) []E) Sources
	memo    func(s *Server) *replyMemo[E]
}

var summariesMemoRoute = memoRoute[core.QoESummary]{
	path:  "/v1/a2i/summaries",
	t:     wire.TypeQoESummaries,
	scope: auth.ScopeA2IQoE,
	value: func(tag string) []core.QoESummary { return summaries128(tag)[:8] },
	setF:  func(e *core.QoESummary, x float64) { e.MeanScore = x },
	sources: func(get func(string) []core.QoESummary) Sources {
		return Sources{QoESummariesFor: get}
	},
	memo: func(s *Server) *replyMemo[core.QoESummary] { return &s.summaries },
}

var trafficMemoRoute = memoRoute[core.TrafficEstimate]{
	path:  "/v1/a2i/traffic",
	t:     wire.TypeTrafficEstimates,
	scope: auth.ScopeA2ITraffic,
	value: func(tag string) []core.TrafficEstimate {
		out := make([]core.TrafficEstimate, 4)
		for i := range out {
			out[i] = core.TrafficEstimate{AppP: "vod-" + tag, CDN: fmt.Sprintf("cdn-%d", i), VolumeBps: 1e8 * float64(i+1), Sessions: 10.5 * float64(i)}
		}
		return out
	},
	setF: func(e *core.TrafficEstimate, x float64) { e.VolumeBps = x },
	sources: func(get func(string) []core.TrafficEstimate) Sources {
		return Sources{TrafficEstimatesFor: get}
	},
	memo: func(s *Server) *replyMemo[core.TrafficEstimate] { return &s.traffic },
}

// TestReplyMemoMatchesEncode drives each A2I route through a scripted
// source and checks every reply against a fresh encode of the value the
// source returned: the memo may only change how a body is made, never which
// bytes or ETag it carries.
func TestReplyMemoMatchesEncode(t *testing.T) {
	t.Run("summaries", func(t *testing.T) { runMemoScript(t, summariesMemoRoute) })
	t.Run("traffic", func(t *testing.T) { runMemoScript(t, trafficMemoRoute) })
}

func runMemoScript[E any](t *testing.T, rt memoRoute[E]) {
	current := map[string][]E{}
	store := auth.NewStore()
	for _, p := range []string{"p", "q"} {
		store.Register("tok-"+p, p, rt.scope)
	}
	srv := NewServer(store, nil, rt.sources(func(partner string) []E { return current[partner] }))
	srv.Now = func() int64 { return fixedNow }
	h := srv.Handler()
	hits := 0

	// serve sends partner's current value, unconditionally and then with
	// the ETag it must carry, and checks both replies.
	serve := func(step, partner string) {
		t.Helper()
		v := current[partner]
		sl := rt.memo(srv).slot(partner)
		sl.mu.Lock()
		if sl.held && sameList(v, sl.value, rt.memo(srv).same) {
			hits++
		}
		sl.mu.Unlock()
		get := func(inm string) *httptest.ResponseRecorder {
			req := httptest.NewRequest(http.MethodGet, rt.path, nil)
			req.Header.Set("Authorization", "Bearer tok-"+partner)
			if inm != "" {
				req.Header.Set("If-None-Match", inm)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			return rec
		}
		rec := get("")
		want, err := wire.Encode(rt.t, fixedNow, v)
		if err != nil {
			if rec.Code != http.StatusInternalServerError || rec.Header().Get("ETag") != "" {
				t.Fatalf("%s: unencodable value answered %d (ETag %q), want 500 without an ETag",
					step, rec.Code, rec.Header().Get("ETag"))
			}
			var ee ErrorEnvelope
			if err := json.Unmarshal(rec.Body.Bytes(), &ee); err != nil || ee.Err.Code != http.StatusInternalServerError {
				t.Fatalf("%s: body %q is not the error envelope", step, rec.Body)
			}
			return
		}
		etag := shaETag(t, v)
		if rec.Code != http.StatusOK || rec.Body.String() != string(want) {
			t.Fatalf("%s: %d %q\nwant 200 %q", step, rec.Code, rec.Body, want)
		}
		if got := rec.Header().Get("ETag"); got != etag {
			t.Fatalf("%s: ETag %s, want %s", step, got, etag)
		}
		if rec := get(etag); rec.Code != http.StatusNotModified || rec.Body.Len() != 0 || rec.Header().Get("ETag") != etag {
			t.Fatalf("%s: conditional GET answered %d, %d bytes, ETag %q; want an empty 304 with %s",
				step, rec.Code, rec.Body.Len(), rec.Header().Get("ETag"), etag)
		}
	}

	a, b := rt.value("a"), rt.value("b")
	// Unchanged ×3, each a fresh but equal slice, as read models return.
	for i := 0; i < 3; i++ {
		current["p"] = slices.Clone(a)
		serve(fmt.Sprintf("unchanged %d", i), "p")
	}
	current["p"] = b
	serve("changed", "p")
	current["p"] = slices.Clone(b)
	serve("unchanged after change", "p")

	// -0 and +0 are equal floats but encode differently.
	negZero := slices.Clone(b)
	rt.setF(&negZero[0], math.Copysign(0, -1))
	posZero := slices.Clone(b)
	rt.setF(&posZero[0], 0)
	for _, step := range []struct {
		name string
		v    []E
	}{{"-0", negZero}, {"-0 again", negZero}, {"+0", posZero}, {"+0 again", posZero}, {"-0 back", negZero}} {
		current["p"] = step.v
		serve(step.name, "p")
	}

	// A NaN cannot be encoded, however often it is returned; the next
	// encodable value is served as usual.
	nan := slices.Clone(b)
	rt.setF(&nan[0], math.NaN())
	current["p"] = nan
	serve("NaN", "p")
	serve("NaN again", "p")
	current["p"] = slices.Clone(b)
	serve("recovered", "p")

	// null and [] are different payloads.
	current["p"] = nil
	serve("nil", "p")
	serve("nil again", "p")
	current["p"] = []E{}
	serve("empty", "p")
	serve("empty again", "p")

	// A source that mutates a slice it already returned, as
	// TestConditionalRequests's does.
	mutable := slices.Clone(a)
	current["p"] = mutable
	serve("mutable", "p")
	serve("mutable again", "p")
	rt.setF(&mutable[0], 12345.5)
	serve("mutated in place", "p")
	serve("mutated, unchanged", "p")
	rt.setF(&mutable[len(mutable)-1], -7)
	serve("mutated in place again", "p")

	// Two partners with different blinded views, alternating.
	current["p"], current["q"] = slices.Clone(a), slices.Clone(b)
	for i := 0; i < 4; i++ {
		serve(fmt.Sprintf("partner p round %d", i), "p")
		serve(fmt.Sprintf("partner q round %d", i), "q")
	}

	if hits == 0 {
		t.Fatal("no request reached the memo's hit path: the script tests only the encode path")
	}
}

// The memo under concurrency: two partners, two clients each, and a source
// that flips between two values every few calls. Every body and ETag must be
// one of the two encodings, matched to each other; under -race a slot read
// while promoted shows up as a race.
func TestReplyMemoConcurrentFlips(t *testing.T) {
	const partners, clients, requests = 2, 2, 100
	store := auth.NewStore()
	values := map[string][2][]core.QoESummary{}
	type encoding struct{ body, etag string }
	want := map[string][2]encoding{}
	for p := 0; p < partners; p++ {
		name := fmt.Sprintf("p%d", p)
		store.Register("tok-"+name, name, auth.ScopeA2IQoE)
		vals := [2][]core.QoESummary{summaries128(name + "x")[:8], summaries128(name + "y")[:8]}
		values[name] = vals
		var enc [2]encoding
		for i, v := range vals {
			body, err := wire.Encode(wire.TypeQoESummaries, fixedNow, v)
			if err != nil {
				t.Fatal(err)
			}
			enc[i] = encoding{string(body), shaETag(t, v)}
		}
		want[name] = enc
	}
	var calls atomic.Uint64
	srv := NewServer(store, nil, Sources{QoESummariesFor: func(partner string) []core.QoESummary {
		return values[partner][calls.Add(1)/3%2]
	}})
	srv.Now = func() int64 { return fixedNow }
	h := srv.Handler()

	var wg sync.WaitGroup
	errs := make(chan error, partners*clients)
	for p := 0; p < partners; p++ {
		name := fmt.Sprintf("p%d", p)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < requests; i++ {
					req := httptest.NewRequest(http.MethodGet, "/v1/a2i/summaries", nil)
					req.Header.Set("Authorization", "Bearer tok-"+name)
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, req)
					got := encoding{rec.Body.String(), rec.Header().Get("ETag")}
					if rec.Code != http.StatusOK || (got != want[name][0] && got != want[name][1]) {
						errs <- fmt.Errorf("%s request %d: %d, ETag %s, %d-byte body: not one of its two encodings",
							name, i, rec.Code, got.etag, len(got.body))
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// The memo's equality sees every field: a field added to an A2I type but
// not to its comparison would let a changed value hit and serve stale bytes.
func TestMemoEqualityCoversEveryField(t *testing.T) {
	checkEveryField(t, summaries128("x")[0], sameSummary)
	checkEveryField(t, trafficMemoRoute.value("x")[0], sameTraffic)
}

func checkEveryField[E any](t *testing.T, base E, same func(a, b *E) bool) {
	t.Helper()
	if !same(&base, &base) {
		t.Fatalf("%T: a value differs from itself", base)
	}
	var walk func(typ reflect.Type, index []int, path string)
	walk = func(typ reflect.Type, index []int, path string) {
		if typ.Kind() == reflect.Struct {
			for i := 0; i < typ.NumField(); i++ {
				walk(typ.Field(i).Type, append(slices.Clone(index), i), path+"."+typ.Field(i).Name)
			}
			return
		}
		changed := base
		f := reflect.ValueOf(&changed).Elem().FieldByIndex(index)
		switch f.Kind() {
		case reflect.String:
			f.SetString(f.String() + "~")
		case reflect.Float64:
			f.SetFloat(math.Nextafter(f.Float(), math.Inf(1)))
		default:
			t.Fatalf("%T%s: kind %s has no perturbation; extend this test and the memo's equality", base, path, f.Kind())
		}
		if same(&base, &changed) {
			t.Errorf("%T%s: a change in this field compares equal", base, path)
		}
	}
	walk(reflect.TypeOf(base), nil, "")
}
