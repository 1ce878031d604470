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
func shaETag(t testing.TB, v any) string {
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

// memoHarness serves one A2I route from a per-partner current value and
// checks every reply against a fresh encode of it.
type memoHarness[E any] struct {
	rt      memoRoute[E]
	current map[string][]E
	srv     *Server
	h       http.Handler
	// hits counts the requests that found their value in the slot.
	hits int
}

func newMemoHarness[E any](rt memoRoute[E]) *memoHarness[E] {
	mh := &memoHarness[E]{rt: rt, current: map[string][]E{}}
	store := auth.NewStore()
	for _, p := range []string{"p", "q"} {
		store.Register("tok-"+p, p, rt.scope)
	}
	mh.srv = NewServer(store, nil, rt.sources(func(partner string) []E { return mh.current[partner] }))
	mh.srv.Now = func() int64 { return fixedNow }
	mh.h = mh.srv.Handler()
	return mh
}

// serve sends partner's current value, unconditionally and then with the
// ETag it must carry, and checks both replies.
func (mh *memoHarness[E]) serve(t testing.TB, step, partner string) {
	t.Helper()
	v := mh.current[partner]
	memo := mh.rt.memo(mh.srv)
	sl := memo.slot(partner)
	sl.mu.Lock()
	if sl.holding(v, memo.same) != nil {
		mh.hits++
	}
	sl.mu.Unlock()
	get := func(inm string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, mh.rt.path, nil)
		req.Header.Set("Authorization", "Bearer tok-"+partner)
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		rec := httptest.NewRecorder()
		mh.h.ServeHTTP(rec, req)
		return rec
	}
	rec := get("")
	want, err := wire.Encode(mh.rt.t, fixedNow, v)
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

func runMemoScript[E any](t *testing.T, rt memoRoute[E]) {
	mh := newMemoHarness(rt)
	current := mh.current
	serve := func(step, partner string) {
		t.Helper()
		mh.serve(t, step, partner)
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

	if mh.hits == 0 {
		t.Fatal("no request reached the memo's hit path: the script tests only the encode path")
	}
}

// FuzzReplyMemoMatchesEncode runs scripted sequences of polls against the
// summaries route and checks every reply as TestReplyMemoMatchesEncode
// does. Each op byte acts on partner p or q (its high bit) and then polls
// that partner; its low three bits pick the op:
//
//	0        poll again, unchanged
//	1 k f x  set field f of element k to value x
//	2 x      append element x
//	3 n      shrink to n elements
//	4        switch between nil and []
//	5 k f s  set float f of element k to -0 (s odd) or +0
//	6 k f s  set float f of element k to NaN, +Inf or -Inf
//	7        replace every NaN and Inf by 1
//
// Operand bytes past the end of the input read as 0. Run with
// `go test -fuzz=FuzzReplyMemoMatchesEncode ./internal/lookingglass`.
func FuzzReplyMemoMatchesEncode(f *testing.F) {
	// TestReplyMemoMatchesEncode's script: unchanged polls, a change, -0
	// and +0, a NaN and its removal, nil and [], and two partners
	// alternating.
	f.Add([]byte{0, 0, 0, 1, 3, 4, 2, 0, 5, 0, 1, 1, 0, 5, 0, 1, 0, 0, 5, 0, 1, 1,
		6, 0, 1, 0, 0, 7, 4, 0, 4, 0, 2, 3, 2, 9, 0x80, 0, 0x80, 0, 0x81, 2, 4, 7, 0, 0x80, 0})
	// Shrink to empty and grow back, one element at a time.
	f.Add([]byte{3, 0, 2, 5, 2, 6, 0, 3, 2, 2, 31, 0x84, 0x82, 1})
	// A NaN in the middle and an infinity at the end, each taken out
	// again, then the keys of the first three elements changed.
	f.Add([]byte{6, 8, 4, 0, 0, 7, 6, 15, 2, 1, 0, 7, 1, 0, 0, 5, 1, 1, 0, 5, 1, 2, 0, 5})
	// Eight elements, a ninth appended, a NaN put into it, and back to the
	// eight: the failed build overwrote the first value's body, which must
	// not be the one that answers the last poll.
	f.Add([]byte{3, 8, 2, 0, 6, 8, 3, 0, 3, 8})
	pool := append(summaries128("a")[:16:16], summaries128("b")[:16]...)
	values := []float64{0, 1, 0.5, 1e-7, 1e21, 123456.789, -3, 5e-324}
	texts := []string{"", "isp-a-0", "<&>", "bad\xff", "\u2028"}
	f.Fuzz(func(t *testing.T, script []byte) {
		mh := newMemoHarness(summariesMemoRoute)
		mh.current["p"] = slices.Clone(pool[:16])
		mh.current["q"] = slices.Clone(pool[16:])
		next := func() int {
			if len(script) == 0 {
				return 0
			}
			b := script[0]
			script = script[1:]
			return int(b)
		}
		for step := 0; len(script) > 0; step++ {
			c := next()
			partner := "p"
			if c&0x80 != 0 {
				partner = "q"
			}
			// Read models return a fresh slice on every call.
			v := slices.Clone(mh.current[partner])
			elem := func() *core.QoESummary {
				k := next()
				if len(v) == 0 {
					return new(core.QoESummary)
				}
				return &v[k%len(v)]
			}
			switch c & 7 {
			case 1:
				e, field, x := elem(), next(), next()
				if field%9 < 3 {
					*[]*string{&e.Key.ClientISP, &e.Key.CDN, &e.Key.Cluster}[field%9] = texts[x%len(texts)]
				} else {
					*summaryFloat(e, field%9-3) = values[x%len(values)]
				}
			case 2:
				v = append(v, pool[next()%len(pool)])
			case 3:
				v = v[:next()%(len(v)+1)]
			case 4:
				if v == nil {
					v = []core.QoESummary{}
				} else {
					v = nil
				}
			case 5:
				e, field, sign := elem(), next(), next()
				*summaryFloat(e, field) = math.Copysign(0, float64(1-2*(sign%2)))
			case 6:
				e, field, which := elem(), next(), next()
				*summaryFloat(e, field) = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[which%3]
			case 7:
				for i := range v {
					for field := 0; field < 6; field++ {
						if x := summaryFloat(&v[i], field); math.IsNaN(*x) || math.IsInf(*x, 0) {
							*x = 1
						}
					}
				}
			}
			mh.current[partner] = v
			mh.serve(t, fmt.Sprintf("step %d (op %#x, %s)", step, c, partner), partner)
		}
	})
}

// summaryFloat returns a summary's float field f, counted modulo six.
func summaryFloat(e *core.QoESummary, f int) *float64 {
	return []*float64{&e.Sessions, &e.MeanScore, &e.MeanBufferingRatio,
		&e.MeanBitrateBps, &e.MeanStartupSec, &e.AbandonmentRate}[f%6]
}

// The memo under concurrency: two partners, two clients each, and a source
// that cycles through three values every few calls. Two of them differ from
// the third in one element each, so misses copy fragments from a body that
// other misses of the same partner may be replacing. Every body and ETag
// must be one of the three encodings, matched to each other; under -race a
// body written while another request reads it shows up as a race.
func TestReplyMemoConcurrentFlips(t *testing.T) {
	const partners, clients, requests = 2, 2, 100
	store := auth.NewStore()
	values := map[string][3][]core.QoESummary{}
	type encoding struct{ body, etag string }
	want := map[string][]encoding{}
	for p := 0; p < partners; p++ {
		name := fmt.Sprintf("p%d", p)
		store.Register("tok-"+name, name, auth.ScopeA2IQoE)
		vals := [3][]core.QoESummary{summaries128(name)[:8], summaries128(name)[:8], summaries128(name)[:8]}
		vals[1][2].Sessions = -1
		vals[2][5].MeanScore = -1
		values[name] = vals
		enc := make([]encoding, len(vals))
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
		return values[partner][calls.Add(1)/3%3]
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
					if rec.Code != http.StatusOK || !slices.Contains(want[name], got) {
						errs <- fmt.Errorf("%s request %d: %d, ETag %s, %d-byte body: not one of its three encodings",
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
