// Package ctlplane is the live control plane over a running EONA node: a
// REST API (mounted on the looking glass's route registry) that inspects the
// network from lock-free snapshots, injects impairments interactively, and
// streams metrics — the operations surface §4 argues the I2A/A2I exchange
// needs for operators to trust it.
//
// Design invariant: interactive ops are journaled ops. Every impairment the
// API applies goes through the same durable path as scripted chaos — link
// throttles/flaps become SetLinkCapacity ops plus a faults.Event annotation
// appended through the projection engine's sink, partner outages and latency
// spikes open faults.Live windows and journal an annotation event. A node
// that crashes mid-demo replays the impairment exactly; eona-trace lists it;
// MaterializeAt rebuilds the degraded network at any offset. Nothing the
// dashboard does is off the record.
//
// Read endpoints serve from netsim.Snapshot pointers and never touch the
// write path; the SSE stream samples the same pointers on a ticker, adding
// zero allocations to the snapshot publish path (pinned by test).
package ctlplane

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"eona/internal/auth"
	"eona/internal/faults"
	"eona/internal/lookingglass"
	"eona/internal/netsim"
	"eona/internal/projection"
)

// Config wires a control plane to a running node. Shared and Topo are
// required; the rest degrade gracefully when nil (no journal annotation, no
// partner impairments, reduced stats).
type Config struct {
	// Shared is the running network; reads come from its snapshots, link
	// impairments go through its owner goroutine.
	Shared *netsim.SharedNetwork
	// Topo names the links (impairments address links by name).
	Topo *netsim.Topology
	// Engine, when set, journals every impairment as a faults.Event through
	// the durable sink (and surfaces read-model counters).
	Engine *projection.Engine
	// LinkUtil and QoE, when set, enrich /v1/stats and the SSE stream.
	LinkUtil *projection.LinkUtil
	QoE      *projection.QoE
	// Partner, when set, enables partner-outage and latency-spike
	// impairments gating the node's poller.
	Partner *faults.Live
	// Clock positions impairment events on the fault timeline; defaults to
	// faults.WallClock(time.Now()). Share it with Partner's clock.
	Clock func() time.Duration
	// Logf, when set, logs impairment activity.
	Logf func(format string, args ...any)
}

// Server is the control-plane API. Create with New, mount with Register.
type Server struct {
	cfg   Config
	clock func() time.Duration

	// linkMu serializes link-impairment inject and restore end to end, so
	// the base capacity an inject records is never one a concurrent inject
	// or an unfinished restore has degraded. Taken before mu.
	linkMu sync.Mutex

	mu     sync.Mutex
	nextID int
	imps   map[int]*impairment
}

// New validates the wiring and builds a control plane.
func New(cfg Config) (*Server, error) {
	if cfg.Shared == nil {
		return nil, errors.New("ctlplane: nil shared network")
	}
	if cfg.Topo == nil {
		return nil, errors.New("ctlplane: nil topology")
	}
	clock := cfg.Clock
	if clock == nil {
		clock = faults.WallClock(time.Now())
	}
	return &Server{cfg: cfg, clock: clock, nextID: 1, imps: make(map[int]*impairment)}, nil
}

// Register mounts the control-plane routes on a registry. Inspection and
// streaming require scope ctl:read, impairment injection ctl:write (admin
// implies both).
func (s *Server) Register(rt *lookingglass.Routes) {
	rt.Handle("GET", "/v1/topology", auth.ScopeCtlRead, s.handleTopology)
	rt.Handle("GET", "/v1/links", auth.ScopeCtlRead, s.handleLinks)
	rt.Handle("GET", "/v1/flows", auth.ScopeCtlRead, s.handleFlows)
	rt.Handle("GET", "/v1/components", auth.ScopeCtlRead, s.handleComponents)
	rt.Handle("GET", "/v1/stats", auth.ScopeCtlRead, s.handleStats)
	rt.Handle("GET", "/v1/stream", auth.ScopeCtlRead, s.handleStream)
	rt.Handle("GET", "/v1/impairments", auth.ScopeCtlRead, s.handleList)
	rt.Handle("POST", "/v1/impairments", auth.ScopeCtlWrite, s.handleInject)
	rt.Handle("DELETE", "/v1/impairments", auth.ScopeCtlWrite, s.handleRestore)
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// --- Read surface -----------------------------------------------------------

// LinkStatus is one link's live state as served by /v1/links (and embedded
// in /v1/topology and the SSE stream).
type LinkStatus struct {
	ID          int     `json:"id"`
	Name        string  `json:"name"`
	From        string  `json:"from"`
	To          string  `json:"to"`
	CapacityBps float64 `json:"capacity_bps"`
	RateBps     float64 `json:"rate_bps"`
	Utilization float64 `json:"utilization"`
	HeadroomBps float64 `json:"headroom_bps"`
	Congestion  string  `json:"congestion"`
	Flows       int     `json:"flows"`
	ActiveFlows int     `json:"active_flows"`
	QueueDelay  string  `json:"queue_delay"`
}

func (s *Server) linkStatuses(snap *netsim.Snapshot) []LinkStatus {
	links := s.cfg.Topo.Links()
	out := make([]LinkStatus, 0, len(links))
	for _, l := range links {
		out = append(out, LinkStatus{
			ID:          int(l.ID),
			Name:        l.Name,
			From:        string(l.From),
			To:          string(l.To),
			CapacityBps: snap.Capacity(l.ID),
			RateBps:     snap.LinkRate(l.ID),
			Utilization: snap.Utilization(l.ID),
			HeadroomBps: snap.Headroom(l.ID),
			Congestion:  snap.Congestion(l.ID).String(),
			Flows:       snap.FlowsOn(l.ID),
			ActiveFlows: snap.ActiveFlowsOn(l.ID),
			QueueDelay:  snap.QueueDelay(l.ID).String(),
		})
	}
	return out
}

func (s *Server) handleTopology(w http.ResponseWriter, r *http.Request, _ string) {
	snap := s.cfg.Shared.Snapshot()
	writeJSON(w, struct {
		Nodes []netsim.NodeID `json:"nodes"`
		Links []LinkStatus    `json:"links"`
	}{Nodes: s.cfg.Topo.Nodes(), Links: s.linkStatuses(snap)})
}

func (s *Server) handleLinks(w http.ResponseWriter, r *http.Request, _ string) {
	snap := s.cfg.Shared.Snapshot()
	writeJSON(w, struct {
		Seq   uint64       `json:"seq"`
		Links []LinkStatus `json:"links"`
	}{Seq: snap.Seq, Links: s.linkStatuses(snap)})
}

func (s *Server) handleFlows(w http.ResponseWriter, r *http.Request, _ string) {
	snap := s.cfg.Shared.Snapshot()
	views := make([]netsim.FlowView, 0, snap.NumFlows())
	snap.Flows(func(v netsim.FlowView) { views = append(views, v) })
	sort.Slice(views, func(i, j int) bool { return views[i].ID < views[j].ID })
	writeJSON(w, struct {
		Seq   uint64            `json:"seq"`
		Count int               `json:"count"`
		Flows []netsim.FlowView `json:"flows"`
	}{Seq: snap.Seq, Count: snap.NumFlows(), Flows: views})
}

func (s *Server) handleComponents(w http.ResponseWriter, r *http.Request, _ string) {
	snap := s.cfg.Shared.Snapshot()
	comps := snap.Components()
	writeJSON(w, struct {
		Seq        uint64                 `json:"seq"`
		Count      int                    `json:"count"`
		Components []netsim.ComponentView `json:"components"`
	}{Seq: snap.Seq, Count: len(comps), Components: comps})
}

// ReadModelStats summarizes the journal-backed read models for /v1/stats.
type ReadModelStats struct {
	OpsFolded     uint64 `json:"ops_folded"`
	FlowStarts    uint64 `json:"flow_starts"`
	FlowStops     uint64 `json:"flow_stops"`
	CapacityEdits uint64 `json:"capacity_edits"`
	UtilSamples   uint64 `json:"util_samples"`
	Poisoned      bool   `json:"poisoned"`
	QoEIngested   uint64 `json:"qoe_ingested"`
	QoEGroups     int    `json:"qoe_groups"`
}

func (s *Server) readModelStats() ReadModelStats {
	var rm ReadModelStats
	read := func() {
		if u := s.cfg.LinkUtil; u != nil {
			rm.OpsFolded = u.Ops()
			rm.FlowStarts = u.Starts()
			rm.FlowStops = u.Stops()
			rm.CapacityEdits = u.CapacityEdits()
			rm.UtilSamples = u.Samples()
			rm.Poisoned = u.Poisoned()
		}
		if q := s.cfg.QoE; q != nil {
			rm.QoEIngested = q.Ingested()
			rm.QoEGroups = len(q.Summaries())
		}
	}
	// The folders have no locks of their own: the engine folds into them
	// under its lock, from the network's owner goroutine and from ingest.
	if e := s.cfg.Engine; e != nil {
		e.Read(read)
	} else {
		read()
	}
	return rm
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request, _ string) {
	snap := s.cfg.Shared.Snapshot()
	s.mu.Lock()
	active := 0
	for _, imp := range s.imps {
		if imp.Active {
			active++
		}
	}
	s.mu.Unlock()
	journalError := ""
	if err := s.cfg.Shared.JournalError(); err != nil {
		journalError = err.Error()
	}
	writeJSON(w, struct {
		Seq               uint64         `json:"seq"`
		Flows             int            `json:"flows"`
		Links             int            `json:"links"`
		Allocator         netsim.Stats   `json:"allocator"`
		ReadModels        ReadModelStats `json:"read_models"`
		ActiveImpairments int            `json:"active_impairments"`
		// JournalError is the network's first journal sink error; absent
		// while the journal is healthy.
		JournalError string `json:"journal_error,omitempty"`
	}{
		Seq:               snap.Seq,
		Flows:             snap.NumFlows(),
		Links:             snap.NumLinks(),
		Allocator:         snap.Stats(),
		ReadModels:        s.readModelStats(),
		ActiveImpairments: active,
		JournalError:      journalError,
	})
}

// --- Impairments ------------------------------------------------------------

// Impairment kinds accepted by POST /v1/impairments.
const (
	KindLinkThrottle = "link-throttle"
	KindLinkFlap     = "link-flap"
	KindLatencySpike = "latency-spike"
	KindPartnerOut   = "partner-outage"
)

// ImpairRequest is the POST /v1/impairments body.
type ImpairRequest struct {
	// Kind selects the impairment: link-throttle, link-flap, latency-spike
	// or partner-outage.
	Kind string `json:"kind"`
	// Link names the target link (by topology name) for link kinds.
	Link string `json:"link,omitempty"`
	// Factor scales the link's capacity for link-throttle, in [0,1).
	Factor *float64 `json:"factor,omitempty"`
	// Duration bounds the impairment (Go duration string, e.g. "30s");
	// empty or "0s" means until explicitly restored via DELETE.
	Duration string `json:"duration,omitempty"`
	// Extra is the added exchange latency for latency-spike (duration
	// string).
	Extra string `json:"extra,omitempty"`
}

// Impairment is one injected impairment's public record.
type Impairment struct {
	ID         int     `json:"id"`
	Kind       string  `json:"kind"`
	Link       string  `json:"link,omitempty"`
	Factor     float64 `json:"factor,omitempty"`
	BaseBps    float64 `json:"base_bps,omitempty"`
	AppliedBps float64 `json:"applied_bps,omitempty"`
	Extra      string  `json:"extra,omitempty"`
	Duration   string  `json:"duration,omitempty"`
	InjectedAt string  `json:"injected_at"`
	Active     bool    `json:"active"`
}

type impairment struct {
	Impairment
	linkID netsim.LinkID
	liveID int
	timer  *time.Timer
}

// journalFault appends one fault annotation to the durable sink. Partner
// impairments carry no capacity changes — the event marks the instant on the
// fault timeline; link impairments carry the applied capacities (their
// SetLinkCapacity ops are journaled by the shared network itself).
func (s *Server) journalFault(changes []faults.CapacityChange) {
	if s.cfg.Engine == nil {
		return
	}
	if err := s.cfg.Engine.AppendFault(faults.Event{At: s.clock(), Changes: changes}); err != nil {
		s.logf("ctlplane: journal fault: %v", err)
	}
}

// applyCapacity routes one interactive capacity change through the owner
// goroutine, fences until it committed (so the next snapshot read observes
// it), then journals the fault annotation.
func (s *Server) applyCapacity(id netsim.LinkID, bps float64) {
	s.cfg.Shared.SetLinkCapacity(id, bps)
	s.cfg.Shared.Commit()
	s.journalFault([]faults.CapacityChange{{Link: id, Bps: bps}})
}

func (s *Server) linkByName(name string) (*netsim.Link, bool) {
	for _, l := range s.cfg.Topo.Links() {
		if l.Name == name {
			return l, true
		}
	}
	return nil, false
}

func parseOptionalDuration(q string) (time.Duration, error) {
	if q == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(q)
	if err != nil {
		return 0, err
	}
	if d < 0 {
		return 0, fmt.Errorf("negative duration %q", q)
	}
	return d, nil
}

func (s *Server) handleInject(w http.ResponseWriter, r *http.Request, collab string) {
	var req ImpairRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		lookingglass.WriteError(w, http.StatusBadRequest, "bad impairment body: "+err.Error())
		return
	}
	dur, err := parseOptionalDuration(req.Duration)
	if err != nil {
		lookingglass.WriteError(w, http.StatusBadRequest, "bad duration: "+err.Error())
		return
	}

	imp := &impairment{Impairment: Impairment{
		Kind:       req.Kind,
		Duration:   req.Duration,
		InjectedAt: s.clock().String(),
		Active:     true,
	}}

	switch req.Kind {
	case KindLinkThrottle, KindLinkFlap:
		l, ok := s.linkByName(req.Link)
		if !ok {
			lookingglass.WriteError(w, http.StatusNotFound, "unknown link "+strconv.Quote(req.Link))
			return
		}
		factor := 0.0 // a flap cuts the link to the 1 bps floor
		if req.Kind == KindLinkThrottle {
			if req.Factor == nil {
				lookingglass.WriteError(w, http.StatusBadRequest, "link-throttle requires factor in [0,1)")
				return
			}
			factor = *req.Factor
			if factor < 0 || factor >= 1 {
				lookingglass.WriteError(w, http.StatusBadRequest, fmt.Sprintf("factor %v outside [0,1)", factor))
				return
			}
		}
		// One link impairment per link: a second one would record the
		// degraded capacity as its base and restore to it.
		s.linkMu.Lock()
		defer s.linkMu.Unlock()
		if id, ok := s.activeOnLink(l.ID); ok {
			lookingglass.WriteError(w, http.StatusConflict,
				fmt.Sprintf("link %q already impaired by impairment %d; restore it first", l.Name, id))
			return
		}
		base := s.cfg.Shared.Snapshot().Capacity(l.ID)
		applied := base * factor
		if applied < 1 {
			applied = 1 // the faults-package floor: links degrade, never vanish
		}
		imp.Link, imp.Factor, imp.BaseBps, imp.AppliedBps, imp.linkID = l.Name, factor, base, applied, l.ID
		s.applyCapacity(l.ID, applied)

	case KindLatencySpike:
		if s.cfg.Partner == nil {
			lookingglass.WriteError(w, http.StatusConflict, "no partner exchange to impair (run with -peer)")
			return
		}
		extra, err := time.ParseDuration(req.Extra)
		if err != nil || extra <= 0 {
			lookingglass.WriteError(w, http.StatusBadRequest, "latency-spike requires positive extra duration")
			return
		}
		imp.Extra = extra.String()
		imp.liveID, _ = s.cfg.Partner.AddLatencySpike(extra, dur)
		s.journalFault(nil)

	case KindPartnerOut:
		if s.cfg.Partner == nil {
			lookingglass.WriteError(w, http.StatusConflict, "no partner exchange to impair (run with -peer)")
			return
		}
		imp.liveID, _ = s.cfg.Partner.AddOutage(dur)
		s.journalFault(nil)

	default:
		lookingglass.WriteError(w, http.StatusBadRequest, "unknown impairment kind "+strconv.Quote(req.Kind))
		return
	}

	s.mu.Lock()
	imp.ID = s.nextID
	s.nextID++
	s.imps[imp.ID] = imp
	if dur > 0 {
		id := imp.ID
		imp.timer = time.AfterFunc(dur, func() { s.restoreByID(id) })
	}
	s.mu.Unlock()

	s.logf("ctlplane: %s injected impairment %d (%s %s)", collab, imp.ID, imp.Kind, imp.Link)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	json.NewEncoder(w).Encode(imp.Impairment)
}

// activeOnLink returns the active link impairment on a link, if any.
func (s *Server) activeOnLink(id netsim.LinkID) (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, imp := range s.imps {
		if imp.Active && imp.linkID == id && (imp.Kind == KindLinkThrottle || imp.Kind == KindLinkFlap) {
			return imp.ID, true
		}
	}
	return 0, false
}

// restoreByID undoes one impairment: link kinds re-apply the recorded base
// capacity (journaled like the injection), partner kinds close their live
// window. Idempotent; timers and DELETE race safely.
func (s *Server) restoreByID(id int) (Impairment, bool) {
	// Held from the Active flip to the capacity write: an inject that sees
	// the link free must also see its restored capacity.
	s.linkMu.Lock()
	defer s.linkMu.Unlock()
	s.mu.Lock()
	imp, ok := s.imps[id]
	if !ok || !imp.Active {
		var rec Impairment
		if ok {
			rec = imp.Impairment
		}
		s.mu.Unlock()
		return rec, ok
	}
	imp.Active = false
	if imp.timer != nil {
		imp.timer.Stop()
	}
	rec := imp.Impairment
	s.mu.Unlock()

	switch rec.Kind {
	case KindLinkThrottle, KindLinkFlap:
		s.applyCapacity(imp.linkID, rec.BaseBps)
	case KindLatencySpike, KindPartnerOut:
		if s.cfg.Partner != nil {
			s.cfg.Partner.Cancel(imp.liveID)
		}
		s.journalFault(nil)
	}
	s.logf("ctlplane: restored impairment %d (%s %s)", id, rec.Kind, rec.Link)
	return rec, true
}

func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request, _ string) {
	q := r.URL.Query().Get("id")
	id, err := strconv.Atoi(q)
	if err != nil {
		lookingglass.WriteError(w, http.StatusBadRequest, "bad impairment id "+strconv.Quote(q))
		return
	}
	rec, ok := s.restoreByID(id)
	if !ok {
		lookingglass.WriteError(w, http.StatusNotFound, fmt.Sprintf("no impairment %d", id))
		return
	}
	rec.Active = false
	writeJSON(w, rec)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request, _ string) {
	s.mu.Lock()
	out := make([]Impairment, 0, len(s.imps))
	for _, imp := range s.imps {
		out = append(out, imp.Impairment)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	writeJSON(w, struct {
		Impairments []Impairment `json:"impairments"`
	}{Impairments: out})
}
