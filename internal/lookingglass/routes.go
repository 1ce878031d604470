package lookingglass

import (
	"encoding/json"
	"errors"
	"net/http"
	"sort"
	"strings"
	"time"

	"eona/internal/auth"
)

// APIError is the single JSON error body every endpoint mounted on a Routes
// registry speaks, nested under "error":
//
//	{"error":{"code":404,"message":"no such endpoint: /v1/nope"}}
type APIError struct {
	Code    int    `json:"code"`
	Message string `json:"message"`
}

// ErrorEnvelope is the on-wire shape of an error response.
type ErrorEnvelope struct {
	Err APIError `json:"error"`
}

// WriteError writes the unified JSON error envelope with the given status.
func WriteError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(ErrorEnvelope{Err: APIError{Code: code, Message: msg}})
}

// WriteJSON answers code with v's JSON encoding. v is encoded in full
// before anything is written, so a value that cannot be encoded (a NaN, a
// time outside years 0–9999) answers 500 with the error envelope, not a 200
// with an empty body.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	buf := getReplyBuf()
	defer putReplyBuf(buf)
	*buf = (*buf)[:0]
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		WriteError(w, http.StatusInternalServerError, "encoding failure: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(*buf)
}

// RouteInfo describes one registered endpoint; Routes.Table exposes the full
// set for docs and the dashboard.
type RouteInfo struct {
	Method  string     `json:"method"`
	Pattern string     `json:"pattern"`
	Scope   auth.Scope `json:"scope,omitempty"`
}

type route struct {
	info    RouteInfo
	handler func(http.ResponseWriter, *http.Request, string)
}

// Routes is a composable route registry: exact method+path patterns, shared
// bearer-token scope guarding, and one JSON error envelope for every 4xx/5xx
// (including its own 404s and 405s). The looking glass, health, history and
// control-plane endpoints all mount here so eona-lg serves a single coherent
// /v1 surface.
type Routes struct {
	auth    *auth.Store
	limiter *auth.RateLimiter
	// Logf, when set, logs denied and failed requests.
	Logf func(format string, args ...any)

	byPath map[string]map[string]route
	order  []RouteInfo
}

// NewRoutes builds an empty registry. store may be nil only if every route
// added is public (scope ""); limiter may be nil (no rate limiting).
func NewRoutes(store *auth.Store, limiter *auth.RateLimiter) *Routes {
	return &Routes{
		auth:    store,
		limiter: limiter,
		byPath:  make(map[string]map[string]route),
	}
}

// Handle registers a scoped endpoint. The handler receives the authenticated
// collaborator name. Scope "" means public: no token required, collab is "".
// Registering a scoped route without an auth store, or the same method+path
// twice, panics — both are wiring bugs.
func (rt *Routes) Handle(method, pattern string, scope auth.Scope, h func(http.ResponseWriter, *http.Request, string)) {
	if scope != "" && rt.auth == nil {
		panic("lookingglass: scoped route " + pattern + " registered without an auth store")
	}
	byMethod, ok := rt.byPath[pattern]
	if !ok {
		byMethod = make(map[string]route)
		rt.byPath[pattern] = byMethod
	}
	if _, dup := byMethod[method]; dup {
		panic("lookingglass: duplicate route " + method + " " + pattern)
	}
	info := RouteInfo{Method: method, Pattern: pattern, Scope: scope}
	byMethod[method] = route{info: info, handler: h}
	rt.order = append(rt.order, info)
}

// HandleFunc registers a public plain http.HandlerFunc endpoint.
func (rt *Routes) HandleFunc(method, pattern string, h http.HandlerFunc) {
	rt.Handle(method, pattern, "", func(w http.ResponseWriter, r *http.Request, _ string) { h(w, r) })
}

// Table lists the registered routes in registration order.
func (rt *Routes) Table() []RouteInfo {
	out := make([]RouteInfo, len(rt.order))
	copy(out, rt.order)
	return out
}

// Handler returns the registry as an http.Handler.
func (rt *Routes) Handler() http.Handler { return rt }

// ServeHTTP dispatches on exact path, then method, then scope guard.
func (rt *Routes) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	byMethod, ok := rt.byPath[r.URL.Path]
	if !ok {
		WriteError(w, http.StatusNotFound, "no such endpoint: "+r.URL.Path)
		return
	}
	rte, ok := byMethod[r.Method]
	if !ok {
		allow := make([]string, 0, len(byMethod))
		for m := range byMethod {
			allow = append(allow, m)
		}
		sort.Strings(allow)
		w.Header().Set("Allow", strings.Join(allow, ", "))
		WriteError(w, http.StatusMethodNotAllowed, r.Method+" not allowed for "+r.URL.Path)
		return
	}
	if rte.info.Scope == "" {
		rte.handler(w, r, "")
		return
	}
	token, ok := bearerToken(r)
	if !ok {
		WriteError(w, http.StatusUnauthorized, "missing bearer token")
		return
	}
	collab, err := rt.auth.Authorize(token, rte.info.Scope)
	if err != nil {
		code := http.StatusUnauthorized
		if errors.Is(err, auth.ErrForbidden) {
			code = http.StatusForbidden
		}
		rt.logf("lookingglass: denied %s %s: %v", r.Method, r.URL.Path, err)
		WriteError(w, code, err.Error())
		return
	}
	if rt.limiter != nil && !rt.limiter.Allow(collab, time.Now()) {
		WriteError(w, http.StatusTooManyRequests, "rate limit exceeded")
		return
	}
	rte.handler(w, r, collab)
}

func (rt *Routes) logf(format string, args ...any) {
	if rt.Logf != nil {
		rt.Logf(format, args...)
	}
}
