package lookingglass

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"

	"eona/internal/core"
	"eona/internal/wire"
)

// Client consumes a peer's looking-glass server. It transparently uses
// conditional requests: each URL's last ETag and envelope are cached, and a
// 304 Not Modified reuses the cached envelope — polling an unchanged
// endpoint costs a header round trip, not a body.
type Client struct {
	base  string
	token string
	http  *http.Client

	mu    sync.Mutex
	cache map[string]cachedResponse
}

type cachedResponse struct {
	etag string
	env  wire.Envelope
}

// NewClient targets baseURL (e.g. "http://peer.example:8080") with a bearer
// token. httpClient may be nil; a client with a 10s timeout is used.
func NewClient(baseURL, token string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = &http.Client{Timeout: 10 * time.Second}
	}
	return &Client{base: baseURL, token: token, http: httpClient, cache: make(map[string]cachedResponse)}
}

// maxResponseBytes bounds response bodies; EONA exports are aggregates and
// should be small.
const maxResponseBytes = 16 << 20

// maxErrorMessageBytes bounds how much of an error response body ends up in
// a StatusError. A misbehaving peer can return megabytes of garbage with its
// 500; that belongs on the floor, not in every log line and wrapped error up
// the stack.
const maxErrorMessageBytes = 1 << 10

func truncateMessage(s string) string {
	if len(s) <= maxErrorMessageBytes {
		return s
	}
	return s[:maxErrorMessageBytes] + "... (truncated)"
}

// StatusError reports a non-2xx looking-glass response.
type StatusError struct {
	Code    int
	Message string
}

// Error implements error.
func (e *StatusError) Error() string {
	return fmt.Sprintf("lookingglass: HTTP %d: %s", e.Code, e.Message)
}

func (c *Client) get(ctx context.Context, path string, query url.Values, want wire.MessageType) (wire.Envelope, error) {
	u := c.base + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return wire.Envelope{}, fmt.Errorf("lookingglass: build request: %w", err)
	}
	req.Header.Set("Authorization", "Bearer "+c.token)
	c.mu.Lock()
	cached, hasCached := c.cache[u]
	c.mu.Unlock()
	if hasCached {
		req.Header.Set("If-None-Match", cached.etag)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return wire.Envelope{}, fmt.Errorf("lookingglass: %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotModified && hasCached {
		return cached.env, nil
	}
	// One byte past the limit tells a body at the limit from a longer one.
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes+1))
	if err != nil {
		return wire.Envelope{}, fmt.Errorf("lookingglass: read %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		// Error responses carry the {"error":{...}} envelope; anything
		// else falls back to the raw body.
		var ee ErrorEnvelope
		if jerr := json.Unmarshal(body, &ee); jerr == nil && ee.Err.Message != "" {
			return wire.Envelope{}, &StatusError{Code: resp.StatusCode, Message: truncateMessage(ee.Err.Message)}
		}
		return wire.Envelope{}, &StatusError{Code: resp.StatusCode, Message: truncateMessage(string(body))}
	}
	if len(body) > maxResponseBytes {
		return wire.Envelope{}, fmt.Errorf("lookingglass: %s: response body exceeds the %d-byte limit", path, maxResponseBytes)
	}
	env, err := wire.Decode(body)
	if err != nil {
		return wire.Envelope{}, err
	}
	if env.Type != want {
		return wire.Envelope{}, fmt.Errorf("%w: got %q, want %q", wire.ErrType, env.Type, want)
	}
	if etag := resp.Header.Get("ETag"); etag != "" {
		c.mu.Lock()
		c.cache[u] = cachedResponse{etag: etag, env: env}
		c.mu.Unlock()
	}
	return env, nil
}

// QoESummaries fetches the peer AppP's A2I summaries.
func (c *Client) QoESummaries(ctx context.Context) ([]core.QoESummary, error) {
	env, err := c.get(ctx, "/v1/a2i/summaries", nil, wire.TypeQoESummaries)
	if err != nil {
		return nil, err
	}
	return wire.DecodePayload[[]core.QoESummary](env, wire.TypeQoESummaries)
}

// TrafficEstimates fetches the peer AppP's A2I traffic estimates.
func (c *Client) TrafficEstimates(ctx context.Context) ([]core.TrafficEstimate, error) {
	env, err := c.get(ctx, "/v1/a2i/traffic", nil, wire.TypeTrafficEstimates)
	if err != nil {
		return nil, err
	}
	return wire.DecodePayload[[]core.TrafficEstimate](env, wire.TypeTrafficEstimates)
}

// PeeringInfo fetches the peer InfP's peering hints, optionally filtered by
// CDN.
func (c *Client) PeeringInfo(ctx context.Context, cdn string) ([]core.PeeringInfo, error) {
	q := url.Values{}
	if cdn != "" {
		q.Set("cdn", cdn)
	}
	env, err := c.get(ctx, "/v1/i2a/peering", q, wire.TypePeeringInfo)
	if err != nil {
		return nil, err
	}
	return wire.DecodePayload[[]core.PeeringInfo](env, wire.TypePeeringInfo)
}

// Attribution fetches the peer InfP's bottleneck attribution for a CDN.
func (c *Client) Attribution(ctx context.Context, cdn string) (core.Attribution, error) {
	q := url.Values{}
	q.Set("cdn", cdn)
	env, err := c.get(ctx, "/v1/i2a/attribution", q, wire.TypeAttribution)
	if err != nil {
		return core.Attribution{}, err
	}
	return wire.DecodePayload[core.Attribution](env, wire.TypeAttribution)
}

// ServerHints fetches the peer CDN/InfP's alternative-server hints.
func (c *Client) ServerHints(ctx context.Context, cdn, cluster string) ([]core.ServerHint, error) {
	q := url.Values{}
	q.Set("cdn", cdn)
	q.Set("cluster", cluster)
	env, err := c.get(ctx, "/v1/i2a/hints", q, wire.TypeServerHints)
	if err != nil {
		return nil, err
	}
	return wire.DecodePayload[[]core.ServerHint](env, wire.TypeServerHints)
}
