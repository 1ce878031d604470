// Package auth implements the access control the paper assumes over
// EONA-query servers ("We assume some suitable access control mechanism
// over the EONA-query servers", §3): bearer tokens bound to a collaborator
// and a scope set, stored only as SHA-256 digests, plus a per-collaborator
// token-bucket rate limiter.
package auth

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Scope names one exported capability.
type Scope string

// The scopes matching the EONA interface surfaces, plus the control-plane
// scopes: ctl:read covers the inspection and streaming endpoints, ctl:write
// covers interactive impairment injection.
const (
	ScopeA2IQoE     Scope = "a2i:qoe"
	ScopeA2ITraffic Scope = "a2i:traffic"
	ScopeI2APeering Scope = "i2a:peering"
	ScopeI2AAttrib  Scope = "i2a:attribution"
	ScopeI2AHints   Scope = "i2a:hints"
	ScopeCtlRead    Scope = "ctl:read"
	ScopeCtlWrite   Scope = "ctl:write"
	ScopeAdmin      Scope = "admin"
)

// Authorization errors. Unauthorized and Forbidden are distinct so HTTP
// handlers can map them to 401 vs 403.
var (
	ErrUnauthorized = errors.New("auth: unknown token")
	ErrForbidden    = errors.New("auth: scope not granted")
)

type grant struct {
	collaborator string
	scopes       map[Scope]bool
}

// Store maps token digests to collaborators and scopes. Safe for concurrent
// use (HTTP handlers call Authorize from many goroutines).
type Store struct {
	mu     sync.RWMutex
	grants map[[sha256.Size]byte]grant
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{grants: make(map[[sha256.Size]byte]grant)}
}

// Register grants a token to a collaborator with the given scopes. The raw
// token is hashed immediately and never retained.
func (s *Store) Register(token, collaborator string, scopes ...Scope) {
	if token == "" || collaborator == "" {
		panic("auth: empty token or collaborator")
	}
	g := grant{collaborator: collaborator, scopes: make(map[Scope]bool, len(scopes))}
	for _, sc := range scopes {
		g.scopes[sc] = true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.grants[sha256.Sum256([]byte(token))] = g
}

// Revoke removes a token.
func (s *Store) Revoke(token string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.grants, sha256.Sum256([]byte(token)))
}

// Authorize checks that token is known and granted scope, returning the
// collaborator name. Only the token's SHA-256 digest is stored, and the
// lookup is keyed by that digest, so its timing depends on the digest and
// never on the raw token bytes.
func (s *Store) Authorize(token string, scope Scope) (string, error) {
	digest := sha256.Sum256([]byte(token))
	s.mu.RLock()
	g, ok := s.grants[digest]
	s.mu.RUnlock()
	if !ok {
		return "", ErrUnauthorized
	}
	if !g.scopes[scope] && !g.scopes[ScopeAdmin] {
		return "", fmt.Errorf("%w: %s for %s", ErrForbidden, scope, g.collaborator)
	}
	return g.collaborator, nil
}

// RateLimiter is a per-key token bucket. Keys are collaborator names.
type RateLimiter struct {
	mu      sync.Mutex
	rate    float64 // tokens per second
	burst   float64
	buckets map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

// NewRateLimiter allows rate requests/second with the given burst.
func NewRateLimiter(rate, burst float64) *RateLimiter {
	if rate <= 0 || burst <= 0 {
		panic("auth: rate and burst must be positive")
	}
	return &RateLimiter{rate: rate, burst: burst, buckets: make(map[string]*bucket)}
}

// Allow reports whether key may proceed at time now, consuming a token if
// so. Passing now explicitly keeps tests deterministic.
func (r *RateLimiter) Allow(key string, now time.Time) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.buckets[key]
	if !ok {
		b = &bucket{tokens: r.burst, last: now}
		r.buckets[key] = b
	}
	elapsed := now.Sub(b.last).Seconds()
	if elapsed > 0 {
		b.tokens += elapsed * r.rate
		if b.tokens > r.burst {
			b.tokens = r.burst
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}
