package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"eona/internal/auth"
	"eona/internal/core"
	"eona/internal/ctlplane"
	"eona/internal/journal"
	"eona/internal/lookingglass"
	"eona/internal/netsim"
	"eona/internal/projection"
)

// clients is how many bearer tokens (one collaborator each) a node registers;
// no workload runs more HTTP clients than that.
const clients = 2

// trafficNow is the "now" the traffic-estimate source queries at, as in
// cmd/eona-lg; generated record timestamps stay inside the window before it.
const trafficNow = 200 * time.Second

// collectorConfig is cmd/eona-lg's demo collector shape.
func collectorConfig() core.CollectorConfig {
	return core.CollectorConfig{
		AppP:   "demo-vod",
		Policy: core.ExportPolicy{MinGroupSessions: 2},
		Window: 5 * time.Minute,
		Seed:   42,
	}
}

// readModels is the folder set cmd/eona-lg folds into.
type readModels struct {
	qoe   *projection.QoE
	hints *projection.Hints
	util  *projection.LinkUtil
}

func newReadModels() readModels {
	return readModels{projection.NewQoE(collectorConfig()), projection.NewHints(), projection.NewLinkUtil()}
}

func (m readModels) folders() []projection.Folder {
	return []projection.Folder{m.qoe, m.hints, m.util}
}

func (m readModels) digests() []uint64 {
	var out []uint64
	for _, f := range m.folders() {
		out = append(out, projection.StateDigest(f))
	}
	return out
}

// newEngine is cmd/eona-lg's buildEngine; jw nil runs fold-only.
func newEngine(jw *journal.Writer, m readModels) (*projection.Engine, error) {
	return projection.NewEngine(projection.Config{Writer: jw, CheckpointEvery: 64}, m.folders()...)
}

// node is an EONA node assembled in-process the way cmd/eona-lg wires it:
// journal → projection engine → journaled SharedNetwork → control plane →
// looking-glass route registry, served by a real net/http server on loopback.
// The wiring duplicates cmd/eona-lg until a later issue extracts a shared
// node constructor.
type node struct {
	dir    string
	jw     *journal.Writer
	eng    *projection.Engine
	models readModels
	topo   *netsim.Topology
	shared *netsim.SharedNetwork
	routes *lookingglass.Routes
	store  *auth.Store
	limit  *auth.RateLimiter
	srv    *http.Server
	served chan error
	base   string

	tr *tracer
	// serving[i] is client i's current lookingglass.serve span: each client
	// has one request in flight, and the looking glass hands the Sources
	// closures the authenticated collaborator, so they find their parent.
	serving [clients]atomic.Uint64
	// window is the net-churn window span the journal sink's spans hang off.
	window atomic.Uint64
}

// tracedSink is the OpSink the traced run passes as SharedConfig.Journal: the
// engine, with a span around each call made from the owner goroutine.
type tracedSink struct {
	n *node
}

func (s tracedSink) AppendOp(op netsim.Op, digest uint64) error {
	sp := s.n.tr.begin("projection.append_op", s.n.window.Load(), 0)
	defer sp.end()
	return s.n.eng.AppendOp(op, digest)
}

func (s tracedSink) AppendSnapshot(st netsim.NetState, digest uint64) error {
	sp := s.n.tr.begin("projection.append_snapshot", s.n.window.Load(), 0)
	defer sp.end()
	return s.n.eng.AppendSnapshot(st, digest)
}

func (s tracedSink) AppendOpaque() error { return s.n.eng.AppendOpaque() }

func collaborator(i int) string { return "client-" + strconv.Itoa(i) }
func token(i int) string        { return "bench-token-" + strconv.Itoa(i) }

// startNode builds a node over topo and serves it on 127.0.0.1:0. The caller
// seeds flows and records through n.shared and n.eng, so they are journaled.
func startNode(topo *netsim.Topology, tr *tracer) (n *node, err error) {
	n = &node{topo: topo, tr: tr, models: newReadModels()}
	if n.dir, err = os.MkdirTemp("", "eona-bench-"); err != nil {
		return nil, err
	}
	tempDirs.add(n.dir)
	defer func() {
		if err != nil {
			n.remove()
		}
	}()
	// SyncRotate, not cmd/eona-lg's default SyncAppend: an fsync per record
	// (~190 µs here) would measure the disk, not the program (README).
	if n.jw, err = journal.Open(journal.Config{Dir: n.dir, Sync: journal.SyncRotate}); err != nil {
		return nil, err
	}
	if n.eng, err = newEngine(n.jw, n.models); err != nil {
		return nil, err
	}
	if err = n.eng.AppendTopology(netsim.ExportTopology(topo)); err != nil {
		return nil, err
	}
	var sink netsim.OpSink = n.eng
	if tr != nil {
		sink = tracedSink{n}
	}
	n.shared = netsim.NewShared(netsim.NewNetwork(topo), netsim.SharedConfig{Journal: sink, SnapshotEvery: 32})

	// The rate limiter stays in the path but never refuses: cmd/eona-lg's
	// default (-rate 50) would turn a closed loop into >99 % 429s.
	n.store, n.limit = auth.NewStore(), auth.NewRateLimiter(1e9, 1e9)
	parent := make(map[string]*atomic.Uint64, clients)
	for i := 0; i < clients; i++ {
		n.store.Register(token(i), collaborator(i), auth.ScopeAdmin)
		parent[collaborator(i)] = &n.serving[i]
	}
	// Read models have no locks of their own, so every source goes through
	// Engine.Read (cmd/eona-lg passes them bare; README, product findings).
	src := lookingglass.Sources{
		QoESummariesFor: func(partner string) (out []core.QoESummary) {
			sp := tr.begin("projection.read_summaries", parent[partner].Load(), 0)
			n.eng.Read(func() { out = n.models.qoe.Summaries() })
			sp.end()
			return out
		},
		TrafficEstimatesFor: func(partner string) (out []core.TrafficEstimate) {
			sp := tr.begin("projection.read_traffic", parent[partner].Load(), 0)
			n.eng.Read(func() { out = n.models.qoe.TrafficEstimates(trafficNow) })
			sp.end()
			return out
		},
	}
	n.routes = lookingglass.NewServer(n.store, n.limit, src).Routes()
	ctl, err := ctlplane.New(ctlplane.Config{
		Shared: n.shared, Topo: topo, Engine: n.eng, LinkUtil: n.models.util, QoE: n.models.qoe,
	})
	if err != nil {
		n.shared.Close()
		return nil, err
	}
	ctl.Register(n.routes)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		n.shared.Close()
		return nil, err
	}
	var h http.Handler = n.routes
	if tr != nil {
		h = http.HandlerFunc(n.serveTraced)
	}
	n.srv = &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      10 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
	n.served = make(chan error, 1)
	go func() { n.served <- n.srv.Serve(ln) }()
	n.base = "http://" + ln.Addr().String()
	return n, nil
}

// traceHeader carries "<client>.<request id>.<client span id>" to the server.
const traceHeader = "X-Bench-Req"

func (n *node) serveTraced(w http.ResponseWriter, r *http.Request) {
	var client int
	var req, parent uint64
	if parts := strings.Split(r.Header.Get(traceHeader), "."); len(parts) == 3 {
		client, _ = strconv.Atoi(parts[0])
		req, _ = strconv.ParseUint(parts[1], 10, 64)
		parent, _ = strconv.ParseUint(parts[2], 10, 64)
	}
	sp := n.tr.begin("lookingglass.serve:"+r.URL.Path, parent, req)
	if client >= 0 && client < clients {
		n.serving[client].Store(sp.id)
	}
	n.routes.ServeHTTP(w, r)
	sp.end()
}

// stop shuts the server and the network down and closes the journal, leaving
// the journal directory for recovery. It returns the first error any layer
// latched while running.
func (n *node) stop() error {
	err := n.srv.Close()
	if serr := <-n.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	n.shared.Close()
	if jerr := n.shared.JournalError(); jerr != nil && err == nil {
		err = fmt.Errorf("shared network journal: %w", jerr)
	}
	if eerr := n.eng.Err(); eerr != nil && err == nil {
		err = fmt.Errorf("projection engine: %w", eerr)
	}
	if cerr := n.jw.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("journal close: %w", cerr)
	}
	return err
}

// remove deletes the journal directory.
func (n *node) remove() {
	os.RemoveAll(n.dir)
	tempDirs.drop(n.dir)
}

// client is one load-generating HTTP client: its own keep-alive connection,
// its own bearer token, one request in flight.
type client struct {
	n   *node
	idx int
	hc  *http.Client
	buf bytes.Buffer
	req uint64
}

func (n *node) newClient(idx int) *client {
	// Request ids are unique across clients: the client index is the high part.
	return &client{n: n, idx: idx, req: uint64(idx) << 40, hc: &http.Client{
		Timeout:   5 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole body, which stays valid until the
// next call.
func (c *client) do(method, path string, body []byte) (status int, data []byte, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.n.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Authorization", "Bearer "+token(c.idx))
	route, _, _ := strings.Cut(path, "?")
	c.req++
	sp := c.n.tr.begin("client.request:"+route, 0, c.req)
	defer sp.end()
	if c.n.tr != nil {
		req.Header.Set(traceHeader, fmt.Sprintf("%d.%d.%d", c.idx, c.req, sp.id))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}
