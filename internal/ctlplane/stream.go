package ctlplane

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"eona/internal/lookingglass"
)

// minStreamInterval bounds how hard one SSE subscriber can hammer the
// sampler.
const minStreamInterval = 50 * time.Millisecond

// streamWriteSlack is how long past one interval a stream waits on a client
// that stops reading before the write fails and the connection drops.
const streamWriteSlack = 5 * time.Second

// StreamSample is one SSE event: the node's live metrics sampled off the
// snapshot pointer. Sampling is pull-only — the publish path never knows a
// subscriber exists, so streaming adds zero allocations to it.
type StreamSample struct {
	Seq         uint64         `json:"seq"`
	Flows       int            `json:"flows"`
	MeanUtil    float64        `json:"mean_util"`
	MaxUtil     float64        `json:"max_util"`
	Links       []LinkStatus   `json:"links"`
	Allocator   uint64         `json:"reallocations"`
	ReadModels  ReadModelStats `json:"read_models"`
	Impairments int            `json:"active_impairments"`
}

func (s *Server) sample() StreamSample {
	snap := s.cfg.Shared.Snapshot()
	links := s.linkStatuses(snap)
	out := StreamSample{
		Seq:        snap.Seq,
		Flows:      snap.NumFlows(),
		Links:      links,
		Allocator:  snap.Stats().Reallocations,
		ReadModels: s.readModelStats(),
	}
	for _, l := range links {
		out.MeanUtil += l.Utilization
		if l.Utilization > out.MaxUtil {
			out.MaxUtil = l.Utilization
		}
	}
	if len(links) > 0 {
		out.MeanUtil /= float64(len(links))
	}
	s.mu.Lock()
	for _, imp := range s.imps {
		if imp.Active {
			out.Impairments++
		}
	}
	s.mu.Unlock()
	return out
}

// handleStream serves Server-Sent Events: one StreamSample immediately, then
// one per interval (?interval=250ms, default 1s, floor 50ms) until the
// client disconnects or ?count=N samples were sent (0 = unbounded; tests
// and curl smoke use a bound). A server WriteTimeout is fixed when the
// request is read, so before each event the write deadline moves to one
// interval plus streamWriteSlack from now: the stream outlives the timeout,
// and a client that stops reading is still cut within that bound.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request, _ string) {
	fl, ok := w.(http.Flusher)
	if !ok {
		lookingglass.WriteError(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	interval := time.Second
	if q := r.URL.Query().Get("interval"); q != "" {
		d, err := time.ParseDuration(q)
		if err != nil || d <= 0 {
			lookingglass.WriteError(w, http.StatusBadRequest, "bad interval "+strconv.Quote(q))
			return
		}
		if d < minStreamInterval {
			d = minStreamInterval
		}
		interval = d
	}
	count := 0
	if q := r.URL.Query().Get("count"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			lookingglass.WriteError(w, http.StatusBadRequest, "bad count "+strconv.Quote(q))
			return
		}
		count = n
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	ctx := r.Context()
	rc := http.NewResponseController(w)
	for sent := 0; ; {
		if err := rc.SetWriteDeadline(time.Now().Add(interval + streamWriteSlack)); err != nil && !errors.Is(err, http.ErrNotSupported) {
			s.logf("ctlplane: stream write deadline: %v", err)
			return
		}
		data, err := json.Marshal(s.sample())
		if err != nil {
			s.logf("ctlplane: stream marshal: %v", err)
			return
		}
		fmt.Fprintf(w, "data: %s\n\n", data)
		fl.Flush()
		sent++
		if count > 0 && sent >= count {
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
	}
}
