package ctlplane

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"eona/internal/auth"
	"eona/internal/core"
	"eona/internal/faults"
	"eona/internal/journal"
	"eona/internal/lookingglass"
	"eona/internal/netsim"
	"eona/internal/projection"
)

// fixture is one control plane over a two-link demo network, mounted behind
// a real auth store: reader (ctl:read), writer (ctl:write), admin.
type fixture struct {
	t      *testing.T
	srv    *Server
	shared *netsim.SharedNetwork
	topo   *netsim.Topology
	util   *projection.LinkUtil
	eng    *projection.Engine
	ts     *httptest.Server
	flow   *netsim.Flow
	closed bool
}

// newFixture builds the fixture on clock, or, when clock is nil, on a fake
// clock that advances 1 ms per read (not safe for concurrent readers).
func newFixture(t *testing.T, jw *journal.Writer, clock func() time.Duration) *fixture {
	t.Helper()
	topo := netsim.NewTopology()
	topo.AddLink("a", "b", 100e6, 5*time.Millisecond, "access")
	topo.AddLink("b", "c", 50e6, 10*time.Millisecond, "peering")
	util := projection.NewLinkUtil()
	qoe := projection.NewQoE(core.CollectorConfig{AppP: "vod", Window: time.Minute, Seed: 1})
	eng, err := projection.NewEngine(projection.Config{Writer: jw, CheckpointEvery: 4}, util, qoe)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.AppendTopology(netsim.ExportTopology(topo)); err != nil {
		t.Fatal(err)
	}
	shared := netsim.NewShared(netsim.NewNetwork(topo), netsim.SharedConfig{Journal: eng, SnapshotEvery: 4})
	links := topo.Links()
	f := shared.StartFlow(netsim.Path{links[0], links[1]}, 30e6, "demo")
	shared.Commit()

	if clock == nil {
		now := time.Duration(0)
		clock = func() time.Duration { now += time.Millisecond; return now }
	}
	srv, err := New(Config{
		Shared:   shared,
		Topo:     topo,
		Engine:   eng,
		LinkUtil: util,
		QoE:      qoe,
		Clock:    clock,
	})
	if err != nil {
		t.Fatal(err)
	}

	store := auth.NewStore()
	store.Register("reader-token", "reader", auth.ScopeCtlRead)
	store.Register("writer-token", "writer", auth.ScopeCtlWrite)
	store.Register("admin-token", "ops", auth.ScopeAdmin)
	rt := lookingglass.NewRoutes(store, nil)
	srv.Register(rt)
	ts := httptest.NewServer(rt.Handler())

	fx := &fixture{t: t, srv: srv, shared: shared, topo: topo, util: util, eng: eng, ts: ts, flow: f}
	t.Cleanup(fx.close)
	return fx
}

func (fx *fixture) close() {
	if fx.closed {
		return
	}
	fx.closed = true
	fx.ts.Close()
	fx.shared.Close()
}

func (fx *fixture) do(method, path, token, body string) (int, []byte) {
	fx.t.Helper()
	req, err := http.NewRequest(method, fx.ts.URL+path, strings.NewReader(body))
	if err != nil {
		fx.t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		fx.t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		fx.t.Fatal(err)
	}
	return resp.StatusCode, b
}

func envelopeCode(t *testing.T, body []byte) int {
	t.Helper()
	var ee lookingglass.ErrorEnvelope
	if err := json.Unmarshal(body, &ee); err != nil || ee.Err.Message == "" {
		t.Fatalf("body is not the unified error envelope: %s", body)
	}
	return ee.Err.Code
}

// TestEndpointScopes walks every /v1 control-plane route through the scope
// guard: no token → 401, wrong scope → 403, right scope (and admin) → 2xx.
// Every denial must speak the unified error envelope.
func TestEndpointScopes(t *testing.T) {
	fx := newFixture(t, nil, nil)
	throttle := `{"kind":"link-throttle","link":"peering","factor":0.5}`
	cases := []struct {
		method, path, body string
		goodToken          string
		wrongToken         string
		wantGood           int
	}{
		{"GET", "/v1/topology", "", "reader-token", "writer-token", 200},
		{"GET", "/v1/links", "", "reader-token", "writer-token", 200},
		{"GET", "/v1/flows", "", "reader-token", "writer-token", 200},
		{"GET", "/v1/components", "", "reader-token", "writer-token", 200},
		{"GET", "/v1/stats", "", "reader-token", "writer-token", 200},
		{"GET", "/v1/stream?count=1&interval=50ms", "", "reader-token", "writer-token", 200},
		{"GET", "/v1/impairments", "", "reader-token", "writer-token", 200},
		{"POST", "/v1/impairments", throttle, "writer-token", "reader-token", 201},
		{"DELETE", "/v1/impairments?id=1", "", "writer-token", "reader-token", 200},
	}
	for _, tc := range cases {
		name := tc.method + " " + tc.path
		if code, body := fx.do(tc.method, tc.path, "", tc.body); code != 401 || envelopeCode(t, body) != 401 {
			t.Errorf("%s without token: code %d, body %s", name, code, body)
		}
		if code, body := fx.do(tc.method, tc.path, tc.wrongToken, tc.body); code != 403 || envelopeCode(t, body) != 403 {
			t.Errorf("%s wrong scope: code %d, body %s", name, code, body)
		}
		if code, body := fx.do(tc.method, tc.path, tc.goodToken, tc.body); code != tc.wantGood {
			t.Errorf("%s right scope: code %d, want %d (body %s)", name, code, tc.wantGood, body)
		}
	}
	// Admin implies both scopes.
	if code, _ := fx.do("GET", "/v1/stats", "admin-token", ""); code != 200 {
		t.Errorf("admin GET stats: %d", code)
	}
	if code, _ := fx.do("POST", "/v1/impairments", "admin-token", throttle); code != 201 {
		t.Errorf("admin POST impairment: %d", code)
	}
}

// TestImpairmentValidation pins the 4xx surface of the write endpoints.
func TestImpairmentValidation(t *testing.T) {
	fx := newFixture(t, nil, nil)
	if code, body := fx.do("POST", "/v1/impairments", "writer-token", `{"kind":"link-flap","link":"access"}`); code != 201 {
		t.Fatalf("setup flap on access: %d %s", code, body)
	}
	cases := []struct {
		name, body string
		want       int
	}{
		{"malformed json", `{"kind":`, 400},
		{"unknown field", `{"kind":"link-flap","link":"peering","nope":1}`, 400},
		{"unknown kind", `{"kind":"gremlins"}`, 400},
		{"unknown link", `{"kind":"link-throttle","link":"backbone","factor":0.5}`, 404},
		{"missing factor", `{"kind":"link-throttle","link":"peering"}`, 400},
		{"factor too big", `{"kind":"link-throttle","link":"peering","factor":1.5}`, 400},
		{"bad duration", `{"kind":"link-flap","link":"peering","duration":"soon"}`, 400},
		{"stacked on an impaired link", `{"kind":"link-throttle","link":"access","factor":0.5}`, 409},
		{"partner outage without partner", `{"kind":"partner-outage"}`, 409},
		{"latency spike without partner", `{"kind":"latency-spike","extra":"100ms"}`, 409},
	}
	for _, tc := range cases {
		code, body := fx.do("POST", "/v1/impairments", "writer-token", tc.body)
		if code != tc.want {
			t.Errorf("%s: code %d, want %d (body %s)", tc.name, code, tc.want, body)
			continue
		}
		if got := envelopeCode(t, body); got != tc.want {
			t.Errorf("%s: envelope code %d, want %d", tc.name, got, tc.want)
		}
	}
	if code, body := fx.do("DELETE", "/v1/impairments?id=abc", "writer-token", ""); code != 400 {
		t.Errorf("bad restore id: %d %s", code, body)
	}
	for _, id := range []string{"99", "0", "-1"} {
		if code, body := fx.do("DELETE", "/v1/impairments?id="+id, "writer-token", ""); code != 404 {
			t.Errorf("unknown restore id %s: %d %s", id, code, body)
		}
	}
}

// TestStackedLinkImpairmentRejected pins one link impairment per link: a
// second inject on an impaired link is a 409 naming the blocker (it would
// otherwise record the degraded capacity as its base and restore to it), and
// after the restore the link is back at the topology's capacity and free to
// impair again.
func TestStackedLinkImpairmentRejected(t *testing.T) {
	fx := newFixture(t, nil, nil)
	access := fx.topo.Links()[0]
	original := access.Capacity
	const throttle = `{"kind":"link-throttle","link":"access","factor":0.2}`

	inject := func() Impairment {
		t.Helper()
		code, body := fx.do("POST", "/v1/impairments", "writer-token", throttle)
		if code != 201 {
			t.Fatalf("inject: %d %s", code, body)
		}
		var imp Impairment
		if err := json.Unmarshal(body, &imp); err != nil {
			t.Fatal(err)
		}
		if imp.BaseBps != original {
			t.Errorf("impairment %d recorded base %v, want the topology's %v", imp.ID, imp.BaseBps, original)
		}
		return imp
	}
	restore := func(id int) {
		t.Helper()
		if code, body := fx.do("DELETE", fmt.Sprintf("/v1/impairments?id=%d", id), "writer-token", ""); code != 200 {
			t.Fatalf("restore %d: %d %s", id, code, body)
		}
	}

	first := inject()
	code, body := fx.do("POST", "/v1/impairments", "writer-token", `{"kind":"link-flap","link":"access"}`)
	if code != 409 || envelopeCode(t, body) != 409 {
		t.Fatalf("stacked inject: %d %s, want 409 envelope", code, body)
	}
	if want := fmt.Sprintf("impairment %d", first.ID); !strings.Contains(string(body), want) {
		t.Errorf("409 body %s does not name the blocking %q", body, want)
	}
	if got := fx.shared.Snapshot().Capacity(access.ID); got != first.AppliedBps {
		t.Errorf("rejected inject moved capacity to %v, want %v", got, first.AppliedBps)
	}
	restore(first.ID)
	restore(inject().ID)
	if got := fx.shared.Snapshot().Capacity(access.ID); got != original {
		t.Errorf("capacity after the last restore = %v, want the topology's %v", got, original)
	}
}

// TestLinksServedFromOneSnapshot polls /v1/links beside a writer that
// alternates one link's capacity between two values, one per commit, so a
// commit's parity names its capacity. A body pairing commit N's seq with
// commit N+1's rows — the handler loading the snapshot twice — breaks that.
func TestLinksServedFromOneSnapshot(t *testing.T) {
	fx := newFixture(t, nil, nil)
	peering := fx.topo.Links()[1]
	byParity := [2]float64{40e6, 60e6}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() { close(stop); wg.Wait() }() // before the fixture closes the network
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Sole writer, one publish per op: the next commit is Seq+1.
		for seq := fx.shared.Snapshot().Seq + 1; ; seq++ {
			select {
			case <-stop:
				return
			default:
			}
			fx.shared.SetLinkCapacity(peering.ID, byParity[seq%2])
			if got := fx.shared.Snapshot().Seq; got != seq {
				t.Errorf("writer expected commit %d, network is at %d", seq, got)
				return
			}
		}
	}()

	req := httptest.NewRequest("GET", "/v1/links", nil)
	first := fx.shared.Snapshot().Seq
	for i := 0; i < 5_000 && !t.Failed(); i++ {
		rec := httptest.NewRecorder()
		fx.srv.handleLinks(rec, req, "reader")
		var got struct {
			Seq   uint64       `json:"seq"`
			Links []LinkStatus `json:"links"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		if got.Seq <= first { // not yet one of the writer's commits
			continue
		}
		if c := got.Links[1].CapacityBps; c != byParity[got.Seq%2] {
			t.Errorf("poll %d: seq %d served with capacity %v, that commit set %v", i, got.Seq, c, byParity[got.Seq%2])
		}
	}
}

// inject POSTs an impairment and returns its ID.
func (fx *fixture) inject(body string) int {
	fx.t.Helper()
	code, resp := fx.do("POST", "/v1/impairments", "writer-token", body)
	if code != 201 {
		fx.t.Fatalf("inject %s: %d %s", body, code, resp)
	}
	var imp Impairment
	if err := json.Unmarshal(resp, &imp); err != nil {
		fx.t.Fatal(err)
	}
	return imp.ID
}

// restore DELETEs an impairment.
func (fx *fixture) restore(id int) {
	fx.t.Helper()
	if code, resp := fx.do("DELETE", fmt.Sprintf("/v1/impairments?id=%d", id), "writer-token", ""); code != 200 {
		fx.t.Fatalf("restore %d: %d %s", id, code, resp)
	}
}

// TestPartnerImpairments drives latency-spike and partner-outage through
// the HTTP surface into the partner rules a gate reads: an outage is on
// until DELETE and spikes sum. The gate's own behaviour is faults'
// TestLiveGate.
func TestPartnerImpairments(t *testing.T) {
	fx := newFixture(t, nil, faults.WallClock(time.Now()))
	Gate(fx.srv, func(context.Context) (int, error) { return 42, nil })

	out := fx.inject(`{"kind":"partner-outage"}`)
	if extra, down := fx.srv.partnerRules(); extra != 0 || !down {
		t.Errorf("partner rules during outage = %v, %v; want 0 and down", extra, down)
	}
	fx.restore(out)
	if extra, down := fx.srv.partnerRules(); extra != 0 || down {
		t.Errorf("partner rules after restore = %v, %v; want 0 and up", extra, down)
	}

	fx.inject(`{"kind":"latency-spike","extra":"150ms"}`)
	fx.inject(`{"kind":"latency-spike","extra":"1h"}`)
	if extra, down := fx.srv.partnerRules(); extra != time.Hour+150*time.Millisecond || down {
		t.Errorf("partner rules = %v, %v; want the spikes' sum and up", extra, down)
	}
}

// TestPartnerDeadlines runs partner rules on a fake clock: a timed rule
// stops gating at its deadline while its restore timer (wall time) has not
// fired and the list still shows it active; an open-ended rule lasts until
// DELETE; a duration whose deadline would overflow is open-ended.
func TestPartnerDeadlines(t *testing.T) {
	var mu sync.Mutex
	now := time.Hour
	fx := newFixture(t, nil, func() time.Duration { mu.Lock(); defer mu.Unlock(); return now })
	advance := func(to time.Duration) { mu.Lock(); now = to; mu.Unlock() }
	gated := Gate(fx.srv, func(context.Context) (int, error) { return 1, nil })
	down := func() bool {
		_, err := gated(context.Background())
		return errors.Is(err, ErrPartnerDown)
	}

	timed := fx.inject(`{"kind":"partner-outage","duration":"30m"}`)
	if !down() {
		t.Fatal("partner up inside a timed outage")
	}
	advance(time.Hour + 30*time.Minute - 1)
	if !down() {
		t.Fatal("partner up 1ns before the outage's deadline")
	}
	advance(time.Hour + 30*time.Minute)
	if down() {
		t.Fatal("partner down at the outage's deadline")
	}
	if _, body := fx.do("GET", "/v1/impairments", "reader-token", ""); !strings.Contains(string(body), `"active":true`) {
		t.Fatalf("timed outage %d inactive before its restore timer fired: %s", timed, body)
	}
	fx.restore(timed)

	open := fx.inject(`{"kind":"partner-outage"}`)
	advance(100 * time.Hour)
	if !down() {
		t.Fatal("open-ended outage ended before DELETE")
	}
	fx.restore(open)
	if down() {
		t.Fatal("partner down after the open-ended outage's DELETE")
	}

	huge := fx.inject(`{"kind":"partner-outage","duration":"2562047h"}`)
	if w := fx.srv.imps[huge-1].window; w.End != faults.OpenEnd {
		t.Errorf("2562047h outage at t=100h: window %+v, want the open end", w)
	}
	if !down() {
		t.Fatal("partner up inside a 2562047h outage")
	}
	fx.restore(huge)
}

// TestPartnerGateUnderImpairmentChurn calls the gate from four goroutines
// while POST and DELETE cycle a partner outage, a 1 ms latency spike and a
// link throttle, some left to their restore timers. After the last DELETE the
// gate is up with no delay and every link is back at its base capacity.
func TestPartnerGateUnderImpairmentChurn(t *testing.T) {
	fx := newFixture(t, nil, faults.WallClock(time.Now()))
	gated := Gate(fx.srv, func(context.Context) (int, error) { return 7, nil })

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if v, err := gated(context.Background()); err != nil && !errors.Is(err, ErrPartnerDown) || err == nil && v != 7 {
					t.Errorf("gated fetch = %d, %v", v, err)
					return
				}
				runtime.Gosched() // on one CPU, leave the HTTP handlers room to run
			}
		}()
	}
	for i := 0; i < 30; i++ {
		dur := ""
		if i%3 == 0 {
			dur = `,"duration":"1ms"`
		}
		ids := []int{
			fx.inject(`{"kind":"partner-outage"` + dur + `}`),
			fx.inject(`{"kind":"latency-spike","extra":"1ms"` + dur + `}`),
			fx.inject(`{"kind":"link-throttle","link":"peering","factor":0.5` + dur + `}`),
		}
		for _, id := range ids {
			fx.restore(id)
		}
	}
	close(stop)
	wg.Wait()

	if extra, down := fx.srv.partnerRules(); extra != 0 || down {
		t.Errorf("after the last DELETE: extra %v, down %v; want 0 and up", extra, down)
	}
	if v, err := gated(context.Background()); err != nil || v != 7 {
		t.Errorf("gate after the last DELETE = %d, %v", v, err)
	}
	snap := fx.shared.Snapshot()
	for _, l := range fx.topo.Links() {
		if got := snap.Capacity(l.ID); got != l.Capacity {
			t.Errorf("link %s at %v after the last DELETE, want its base %v", l.Name, got, l.Capacity)
		}
	}
}

// TestImpairmentJournalRoundTrip is the acceptance pin: an interactive
// throttle must land in the journal as a capacity op plus a fault event,
// survive recovery, and be visible through MaterializeAt at an offset
// straddling it.
func TestImpairmentJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	jw, err := journal.Open(journal.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	fx := newFixture(t, jw, nil)
	peering := fx.topo.Links()[1]

	code, body := fx.do("POST", "/v1/impairments", "writer-token",
		`{"kind":"link-throttle","link":"peering","factor":0.5}`)
	if code != 201 {
		t.Fatalf("inject: %d %s", code, body)
	}
	var imp Impairment
	if err := json.Unmarshal(body, &imp); err != nil {
		t.Fatal(err)
	}
	if imp.BaseBps != 50e6 || imp.AppliedBps != 25e6 {
		t.Fatalf("impairment record = %+v", imp)
	}
	// The live read surface sees the degraded link immediately.
	code, body = fx.do("GET", "/v1/links", "reader-token", "")
	if code != 200 || !strings.Contains(string(body), `"capacity_bps":25000000`) {
		t.Fatalf("links after throttle: %d %s", code, body)
	}
	// Restore interactively, then shut down cleanly.
	if code, _ := fx.do("DELETE", fmt.Sprintf("/v1/impairments?id=%d", imp.ID), "writer-token", ""); code != 200 {
		t.Fatal("restore failed")
	}
	fx.close()
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := journal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Faults) != 2 {
		t.Fatalf("recovered %d fault events, want 2 (inject + restore): %+v", len(rec.Faults), rec.Faults)
	}
	if ch := rec.Faults[0].Changes; len(ch) != 1 || ch[0].Link != peering.ID || ch[0].Bps != 25e6 {
		t.Errorf("inject fault event = %+v", rec.Faults[0])
	}
	if ch := rec.Faults[1].Changes; len(ch) != 1 || ch[0].Bps != 50e6 {
		t.Errorf("restore fault event = %+v", rec.Faults[1])
	}

	// Op stream: start, throttle, restore — find the capacity ops.
	var capOps []int
	for i, op := range rec.Ops {
		if op.Op.Kind == netsim.OpSetLinkCapacity {
			capOps = append(capOps, i)
		}
	}
	if len(capOps) != 2 {
		t.Fatalf("recovered %d capacity ops, want 2: %+v", len(capOps), rec.Ops)
	}

	// Time travel: just past the throttle the link is degraded; at the end
	// it is restored.
	mid, _, err := rec.MaterializeAt(capOps[0] + 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := mid.Snapshot().Capacity(peering.ID); got != 25e6 {
		t.Errorf("capacity at straddling offset = %v, want 25e6", got)
	}
	end, _, err := rec.MaterializeAt(len(rec.Ops))
	if err != nil {
		t.Fatal(err)
	}
	if got := end.Snapshot().Capacity(peering.ID); got != 50e6 {
		t.Errorf("capacity at end = %v, want 50e6", got)
	}
}

// TestStreamObservesCapacityChange subscribes to the SSE stream and asserts
// a mid-stream SetLinkCapacity shows up in a later sample.
func TestStreamObservesCapacityChange(t *testing.T) {
	fx := newFixture(t, nil, nil)
	peering := fx.topo.Links()[1]

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", fx.ts.URL+"/v1/stream?interval=50ms&count=100", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer reader-token")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 || resp.Header.Get("Content-Type") != "text/event-stream" {
		t.Fatalf("stream: %d %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}

	sc := bufio.NewScanner(resp.Body)
	samples := 0
	changed := false
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var sample StreamSample
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &sample); err != nil {
			t.Fatalf("bad sample %q: %v", line, err)
		}
		samples++
		if samples == 1 {
			// First sample observed — mutate mid-stream.
			fx.shared.SetLinkCapacity(peering.ID, 10e6)
			fx.shared.Commit()
			continue
		}
		for _, l := range sample.Links {
			if l.ID == int(peering.ID) && l.CapacityBps == 10e6 {
				changed = true
			}
		}
		if changed {
			break
		}
	}
	if err := sc.Err(); err != nil && !changed {
		t.Fatal(err)
	}
	if !changed {
		t.Fatalf("capacity change never observed in %d samples", samples)
	}
}

// TestStreamOutlivesServerWriteTimeout: a server's WriteTimeout is fixed when
// the request is read, so a stream that outlasts it must move its write
// deadline per event, or its first write past the timeout fails and the
// client sees the stream cut short (cmd/eona-lg sets a 10 s WriteTimeout; its
// dashboard streams without a count).
func TestStreamOutlivesServerWriteTimeout(t *testing.T) {
	fx := newFixture(t, nil, nil)
	ts := httptest.NewUnstartedServer(fx.ts.Config.Handler)
	ts.Config.WriteTimeout = 200 * time.Millisecond
	ts.Start()
	defer ts.Close()

	req, err := http.NewRequest("GET", ts.URL+"/v1/stream?interval=50ms&count=10", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer reader-token")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "data: ") {
			events++
		}
	}
	if events != 10 {
		t.Fatalf("stream delivered %d of 10 events past a 200ms WriteTimeout (read error: %v)", events, sc.Err())
	}
}

// TestStreamAddsNoPublishAllocs is the acceptance pin for "SSE adds 0
// allocations to the snapshot publish path": the same mutation loop must
// allocate no more with an idle SSE subscriber attached than without one.
// (The publish path itself is not absolutely allocation-free under churn —
// chunk refills allocate — which is why this is a differential pin.)
func TestStreamAddsNoPublishAllocs(t *testing.T) {
	fx := newFixture(t, nil, nil)
	demand := 10e6
	mutate := func() {
		demand = 22e6 - demand // alternate 10e6 / 12e6 so every op mutates
		fx.shared.SetDemand(fx.flow, demand)
		fx.shared.Commit()
	}
	base := testing.AllocsPerRun(300, mutate)

	// Attach a subscriber that reads one sample then idles for an hour —
	// it holds the connection but touches nothing during the measurement.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", fx.ts.URL+"/v1/stream?interval=1h", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer reader-token")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatal(err)
	}

	with := testing.AllocsPerRun(300, mutate)
	if with > base+0.5 {
		t.Errorf("publish path allocs rose with an SSE subscriber: %.2f → %.2f per mutation", base, with)
	}
}

// TestStatsUnderConcurrentFolds hammers GET /v1/stats while the engine folds
// ingests (the caller's goroutine) and journaled capacity ops (the network's
// owner goroutine) into the read models it reports. The read models have no
// locks of their own, so this is a -race pin on readModelStats taking the
// engine's read lock.
func TestStatsUnderConcurrentFolds(t *testing.T) {
	jw, err := journal.Open(journal.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	fx := newFixture(t, jw, nil)
	peering := fx.topo.Links()[1]
	const rounds = 200

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			rec := core.QoERecord{
				SessionID: fmt.Sprintf("s%d", i), AppP: "vod", ClientISP: "isp-a",
				CDN: fmt.Sprintf("cdn%d", i%3), Cluster: "east", Score: float64(i % 100),
			}
			if err := fx.eng.AppendIngest(rec); err != nil {
				t.Errorf("append ingest %d: %v", i, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			fx.shared.SetLinkCapacity(peering.ID, 50e6-float64(i+1)*1e3)
			fx.shared.Commit()
		}
	}()
	for i := 0; i < rounds/4; i++ {
		if code, body := fx.do("GET", "/v1/stats", "reader-token", ""); code != 200 {
			t.Fatalf("stats: %d %s", code, body)
		}
	}
	wg.Wait()

	_, body := fx.do("GET", "/v1/stats", "reader-token", "")
	var stats struct {
		ReadModels ReadModelStats `json:"read_models"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if rm := stats.ReadModels; rm.QoEIngested != rounds || rm.QoEGroups != 3 || rm.CapacityEdits != rounds {
		t.Errorf("read models after the storm = %+v, want %d ingests in 3 groups and %d capacity edits", rm, rounds, rounds)
	}
}

// brokenSink is a journal sink whose disk is gone.
type brokenSink struct{}

func (brokenSink) AppendOp(netsim.Op, uint64) error             { return fmt.Errorf("disk gone") }
func (brokenSink) AppendSnapshot(netsim.NetState, uint64) error { return fmt.Errorf("disk gone") }

// TestStatsReportsJournalError: /v1/stats carries the running network's
// first sink error as journal_error, and omits the field while healthy.
func TestStatsReportsJournalError(t *testing.T) {
	stats := func(sink netsim.OpSink) string {
		topo := netsim.NewTopology()
		l := topo.AddLink("a", "b", 100e6, time.Millisecond, "access")
		shared := netsim.NewShared(netsim.NewNetwork(topo), netsim.SharedConfig{Journal: sink})
		defer shared.Close()
		shared.StartFlow(netsim.Path{l}, 1e6, "demo")
		srv, err := New(Config{Shared: shared, Topo: topo})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.handleStats(rec, httptest.NewRequest("GET", "/v1/stats", nil), "")
		var out struct {
			JournalError *string `json:"journal_error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("stats body %s: %v", rec.Body, err)
		}
		if out.JournalError == nil {
			return ""
		}
		return *out.JournalError
	}
	if got := stats(nil); got != "" {
		t.Errorf("healthy network reports journal_error %q", got)
	}
	if got := stats(brokenSink{}); got != "disk gone" {
		t.Errorf("journal_error = %q, want %q", got, "disk gone")
	}
}

// TestReadEndpointPayloads spot-checks the inspection payload shapes.
func TestReadEndpointPayloads(t *testing.T) {
	fx := newFixture(t, nil, nil)

	code, body := fx.do("GET", "/v1/topology", "reader-token", "")
	if code != 200 {
		t.Fatalf("topology: %d", code)
	}
	var topo struct {
		Nodes []string     `json:"nodes"`
		Links []LinkStatus `json:"links"`
	}
	if err := json.Unmarshal(body, &topo); err != nil {
		t.Fatal(err)
	}
	if len(topo.Nodes) != 3 || len(topo.Links) != 2 {
		t.Errorf("topology = %d nodes, %d links", len(topo.Nodes), len(topo.Links))
	}
	if topo.Links[1].Name != "peering" || topo.Links[1].CapacityBps != 50e6 {
		t.Errorf("peering link = %+v", topo.Links[1])
	}

	code, body = fx.do("GET", "/v1/flows", "reader-token", "")
	var flows struct {
		Count int `json:"count"`
		Flows []struct {
			ID   int64   `json:"ID"`
			Rate float64 `json:"Rate"`
			Tag  string  `json:"Tag"`
		} `json:"flows"`
	}
	if err := json.Unmarshal(body, &flows); err != nil || code != 200 {
		t.Fatalf("flows: %d %v", code, err)
	}
	if flows.Count != 1 || len(flows.Flows) != 1 || flows.Flows[0].Tag != "demo" || flows.Flows[0].Rate != 30e6 {
		t.Errorf("flows = %s", body)
	}

	code, body = fx.do("GET", "/v1/components", "reader-token", "")
	var comps struct {
		Count int `json:"count"`
	}
	if err := json.Unmarshal(body, &comps); err != nil || code != 200 || comps.Count != 1 {
		t.Errorf("components: %d %s", code, body)
	}

	code, body = fx.do("GET", "/v1/stats", "reader-token", "")
	var stats struct {
		Flows      int            `json:"flows"`
		Links      int            `json:"links"`
		ReadModels ReadModelStats `json:"read_models"`
	}
	if err := json.Unmarshal(body, &stats); err != nil || code != 200 {
		t.Fatalf("stats: %d %v", code, err)
	}
	if stats.Flows != 1 || stats.Links != 2 {
		t.Errorf("stats = %s", body)
	}
	if stats.ReadModels.OpsFolded == 0 || stats.ReadModels.FlowStarts != 1 {
		t.Errorf("read models = %+v", stats.ReadModels)
	}
}

// A read that cannot be encoded — an infinite link capacity here — is a 500
// in the error envelope, not a 200 with an empty body.
func TestUnencodableReadIs500(t *testing.T) {
	topo := netsim.NewTopology()
	topo.AddLink("a", "b", math.Inf(1), time.Millisecond, "unbounded")
	shared := netsim.NewShared(netsim.NewNetwork(topo), netsim.SharedConfig{})
	defer shared.Close()
	srv, err := New(Config{Shared: shared, Topo: topo})
	if err != nil {
		t.Fatal(err)
	}
	store := auth.NewStore()
	store.Register("reader-token", "reader", auth.ScopeCtlRead)
	rt := lookingglass.NewRoutes(store, nil)
	srv.Register(rt)
	req := httptest.NewRequest(http.MethodGet, "/v1/links", nil)
	req.Header.Set("Authorization", "Bearer reader-token")
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, req)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d body %q, want 500", rec.Code, rec.Body)
	}
	if code := envelopeCode(t, rec.Body.Bytes()); code != http.StatusInternalServerError {
		t.Errorf("envelope code = %d, want 500", code)
	}
}
