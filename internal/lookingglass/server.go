// Package lookingglass implements the query servers §3 proposes: "InfPs and
// AppPs can establish 'looking glass'-like servers that can be queried to
// implement the respective interfaces".
//
// A Server exposes whichever interface surfaces its owner provides (an AppP
// sets the A2I sources, an InfP the I2A sources) over HTTP+JSON using the
// wire envelope, behind bearer-token scopes and per-collaborator rate
// limits. A Client consumes a peer's server. Both sides are plain stdlib
// net/http and are exercised over httptest and loopback TCP in the tests.
package lookingglass

import (
	"crypto/sha256"
	"encoding/hex"
	"log"
	"net/http"
	"strings"
	"sync"
	"time"

	"eona/internal/auth"
	"eona/internal/core"
	"eona/internal/wire"
)

// Sources supplies the data a server exports. Nil funcs mean "surface not
// offered" and return 404. Each func is called per request; implementations
// close over the owner's state (and its simulator clock, if any).
type Sources struct {
	// A2I surfaces (set by an AppP).
	QoESummaries     func() []core.QoESummary
	TrafficEstimates func() []core.TrafficEstimate

	// I2A surfaces (set by an InfP). The cdn argument comes from the
	// ?cdn= query parameter and may be empty.
	PeeringInfo func(cdn string) []core.PeeringInfo
	Attribution func(cdn string) (core.Attribution, bool)
	ServerHints func(cdn, cluster string) []core.ServerHint

	// Per-partner A2I variants, preferred over the plain funcs when
	// non-nil: the authenticated collaborator name is passed through so
	// the owner can apply partner-specific blinding policies (§4: "AppPs
	// and InfPs must be able to specify what can or cannot be shared").
	// Wire them to a core.Registry + Collector.SummariesUnder.
	QoESummariesFor     func(partner string) []core.QoESummary
	TrafficEstimatesFor func(partner string) []core.TrafficEstimate
}

// Server is an EONA looking-glass HTTP server.
type Server struct {
	auth    *auth.Store
	limiter *auth.RateLimiter
	src     Sources
	// Now supplies timestamps for envelopes; defaults to wall clock
	// milliseconds. Experiments inject the simulator clock.
	Now func() int64
	// Logf, when set, logs denied and failed requests.
	Logf func(format string, args ...any)
}

// NewServer builds a server. limiter may be nil (no rate limiting).
func NewServer(store *auth.Store, limiter *auth.RateLimiter, src Sources) *Server {
	if store == nil {
		panic("lookingglass: nil auth store")
	}
	return &Server{
		auth:    store,
		limiter: limiter,
		src:     src,
		Now:     func() int64 { return time.Now().UnixMilli() },
	}
}

// Routes returns a route registry preloaded with the EONA looking-glass
// endpoints:
//
//	GET /v1/a2i/summaries          (scope a2i:qoe)
//	GET /v1/a2i/traffic            (scope a2i:traffic)
//	GET /v1/i2a/peering?cdn=X      (scope i2a:peering)
//	GET /v1/i2a/attribution?cdn=X  (scope i2a:attribution)
//	GET /v1/i2a/hints?cdn=X&cluster=Y (scope i2a:hints)
//
// Callers compose further endpoints (health, history, control plane) onto
// the same registry; they share the scope guard, rate limiter and error
// envelope.
func (s *Server) Routes() *Routes {
	rt := NewRoutes(s.auth, s.limiter)
	rt.Logf = s.logf
	rt.Handle("GET", "/v1/a2i/summaries", auth.ScopeA2IQoE, s.handleSummaries)
	rt.Handle("GET", "/v1/a2i/traffic", auth.ScopeA2ITraffic, s.handleTraffic)
	rt.Handle("GET", "/v1/i2a/peering", auth.ScopeI2APeering, s.handlePeering)
	rt.Handle("GET", "/v1/i2a/attribution", auth.ScopeI2AAttrib, s.handleAttribution)
	rt.Handle("GET", "/v1/i2a/hints", auth.ScopeI2AHints, s.handleHints)
	return rt
}

// Handler returns the HTTP handler exposing the looking-glass routes.
func (s *Server) Handler() http.Handler {
	return s.Routes().Handler()
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

func bearerToken(r *http.Request) (string, bool) {
	h := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if !strings.HasPrefix(h, prefix) || len(h) == len(prefix) {
		return "", false
	}
	return h[len(prefix):], true
}

func (s *Server) deny(w http.ResponseWriter, code int, msg string) {
	WriteError(w, code, msg)
}

// maxPooledReply caps the reply buffers kept for reuse: a rare oversized
// body is left to the collector rather than pinned in the pool.
const maxPooledReply = 1 << 20

// replyBufs holds encode buffers across replies, so a poll allocates
// nothing sized to its body.
var replyBufs = sync.Pool{New: func() any { return new([]byte) }}

func (s *Server) reply(w http.ResponseWriter, r *http.Request, t wire.MessageType, payload any) {
	buf := replyBufs.Get().(*[]byte)
	defer func() {
		if cap(*buf) <= maxPooledReply {
			replyBufs.Put(buf)
		}
	}()
	msg, raw, err := wire.AppendEncode((*buf)[:0], t, s.Now(), payload)
	if err != nil {
		s.logf("lookingglass: encode %s: %v", t, err)
		WriteError(w, http.StatusInternalServerError, "encoding failure")
		return
	}
	*buf = msg
	// ETag over the payload (not the envelope: the envelope timestamp
	// changes every call even when the data hasn't) so pollers can use
	// If-None-Match and skip unchanged bodies — EONA peers poll these
	// endpoints continuously.
	sum := sha256.Sum256(raw)
	etag := `"` + hex.EncodeToString(sum[:8]) + `"`
	w.Header().Set("ETag", etag)
	if noneMatch(r.Header.Values("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(msg); err != nil {
		s.logf("lookingglass: write response: %v", err)
	}
}

// noneMatch reports whether If-None-Match field values name etag, under the
// weak comparison RFC 9110 §13.1.2 prescribes: a field is "*" (any current
// representation) or a comma-separated list of entity tags, each possibly
// W/-prefixed. Parsing stops at the first malformed element of a list.
func noneMatch(fields []string, etag string) bool {
	for _, list := range fields {
		if strings.TrimSpace(list) == "*" {
			return true
		}
		for {
			list = strings.TrimLeft(list, " \t,")
			tag, rest, ok := cutETag(list)
			if !ok {
				break
			}
			if tag == etag {
				return true
			}
			list = rest
		}
	}
	return false
}

// cutETag splits the entity tag at the head of s from the rest, dropping a
// W/ prefix: weak comparison ignores it.
func cutETag(s string) (tag, rest string, ok bool) {
	s = strings.TrimPrefix(s, "W/")
	if !strings.HasPrefix(s, `"`) {
		return "", "", false
	}
	end := strings.IndexByte(s[1:], '"')
	if end < 0 {
		return "", "", false
	}
	return s[:end+2], s[end+2:], true
}

func (s *Server) handleSummaries(w http.ResponseWriter, r *http.Request, collab string) {
	switch {
	case s.src.QoESummariesFor != nil:
		s.reply(w, r, wire.TypeQoESummaries, s.src.QoESummariesFor(collab))
	case s.src.QoESummaries != nil:
		s.reply(w, r, wire.TypeQoESummaries, s.src.QoESummaries())
	default:
		s.deny(w, http.StatusNotFound, "a2i summaries not offered")
	}
}

func (s *Server) handleTraffic(w http.ResponseWriter, r *http.Request, collab string) {
	switch {
	case s.src.TrafficEstimatesFor != nil:
		s.reply(w, r, wire.TypeTrafficEstimates, s.src.TrafficEstimatesFor(collab))
	case s.src.TrafficEstimates != nil:
		s.reply(w, r, wire.TypeTrafficEstimates, s.src.TrafficEstimates())
	default:
		s.deny(w, http.StatusNotFound, "a2i traffic not offered")
	}
}

func (s *Server) handlePeering(w http.ResponseWriter, r *http.Request, _ string) {
	if s.src.PeeringInfo == nil {
		s.deny(w, http.StatusNotFound, "i2a peering not offered")
		return
	}
	s.reply(w, r, wire.TypePeeringInfo, s.src.PeeringInfo(r.URL.Query().Get("cdn")))
}

func (s *Server) handleAttribution(w http.ResponseWriter, r *http.Request, _ string) {
	if s.src.Attribution == nil {
		s.deny(w, http.StatusNotFound, "i2a attribution not offered")
		return
	}
	cdn := r.URL.Query().Get("cdn")
	att, ok := s.src.Attribution(cdn)
	if !ok {
		s.deny(w, http.StatusNotFound, "no attribution for cdn "+cdn)
		return
	}
	s.reply(w, r, wire.TypeAttribution, att)
}

func (s *Server) handleHints(w http.ResponseWriter, r *http.Request, _ string) {
	if s.src.ServerHints == nil {
		s.deny(w, http.StatusNotFound, "i2a hints not offered")
		return
	}
	q := r.URL.Query()
	s.reply(w, r, wire.TypeServerHints, s.src.ServerHints(q.Get("cdn"), q.Get("cluster")))
}

// ListenAndServe runs the server on addr until the listener fails. Intended
// for cmd/eona-lg; tests use Handler with httptest.
func (s *Server) ListenAndServe(addr string) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      10 * time.Second,
		IdleTimeout:       60 * time.Second,
		ErrorLog:          log.New(logWriter{s}, "", 0),
	}
	return srv.ListenAndServe()
}

type logWriter struct{ s *Server }

func (lw logWriter) Write(p []byte) (int, error) {
	lw.s.logf("%s", strings.TrimSpace(string(p)))
	return len(p), nil
}
