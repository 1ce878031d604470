package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"eona"
	"eona/internal/core"
	"eona/internal/journal"
	"eona/internal/projection"
)

func serveRole(t *testing.T, src eona.Sources) *eona.Client {
	t.Helper()
	store := eona.NewAuthStore()
	store.Register("demo-token", "demo", eona.ScopeAdmin)
	srv := eona.NewServer(store, nil, src)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return eona.NewClient(ts.URL, "demo-token")
}

// foldOnlyAppp builds the appp sources over a fold-only projection engine
// (no journal), as a journal-less server does.
func foldOnlyAppp(t *testing.T) eona.Sources {
	t.Helper()
	eng, qoeModel, _, _, err := buildEngine(nil)
	if err != nil {
		t.Fatal(err)
	}
	return apppSources(eng, qoeModel)
}

func TestApppSourcesServeA2I(t *testing.T) {
	client := serveRole(t, foldOnlyAppp(t))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	sums, err := client.QoESummaries(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) == 0 {
		t.Fatal("demo AppP exports no summaries")
	}
	for _, s := range sums {
		if s.Sessions < 2 {
			t.Errorf("group %+v below the demo k-anonymity floor", s.Key)
		}
		if s.MeanScore < 0 || s.MeanScore > 100 {
			t.Errorf("score out of range: %+v", s)
		}
	}

	traffic, err := client.TrafficEstimates(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(traffic) == 0 {
		t.Fatal("demo AppP exports no traffic estimates")
	}
}

// TestJournalRestartResumesReadModels pins the eona-lg crash/recover cycle
// at the source-construction layer: a first boot feeds (and journals) the
// synthetic sessions through the projection engine, committing read-model
// checkpoints on cadence; a restart resumes from the newest checkpoint and
// refolds only the tail, serving identical summaries — without
// re-journaling history and without refolding the whole stream.
func TestJournalRestartResumesReadModels(t *testing.T) {
	dir := t.TempDir()
	w, err := journal.Open(journal.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	eng1, qoe1, _, _, err := buildEngine(w)
	if err != nil {
		t.Fatal(err)
	}
	src1 := apppSources(eng1, qoe1)
	sum1 := src1.QoESummaries()
	traffic1 := src1.TrafficEstimates()
	if len(sum1) == 0 {
		t.Fatal("first boot served no summaries")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := journal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Ingests) != 200 {
		t.Fatalf("journal holds %d ingests, want the 200 synthetic sessions", len(rec.Ingests))
	}
	if len(rec.Checkpoints) == 0 {
		t.Fatal("first boot committed no read-model checkpoints")
	}

	w2, err := journal.Open(journal.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	eng2, qoe2, _, _, err := buildEngine(w2)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := eng2.Resume(rec)
	if err != nil {
		t.Fatal(err)
	}
	if tail := stats.TailFolded[qoe2.Name()]; tail >= len(rec.Stream) {
		t.Fatalf("resume refolded the whole stream (%d records); checkpoint unused", tail)
	}
	src2 := apppSources(eng2, qoe2)
	if got := src2.QoESummaries(); !reflect.DeepEqual(got, sum1) {
		t.Fatalf("recovered summaries differ:\n%+v\n%+v", got, sum1)
	}
	if got := src2.TrafficEstimates(); !reflect.DeepEqual(got, traffic1) {
		t.Fatalf("recovered traffic estimates differ:\n%+v\n%+v", got, traffic1)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	rec2, err := journal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec2.Ingests) != 200 {
		t.Fatalf("restart re-journaled history: %d ingests", len(rec2.Ingests))
	}
}

// TestPollPeerSeedsFromHintModel: a restart warm-starts the peer snapshot
// from the hint read model's newest poll for that peer, at its original
// fetch time.
func TestPollPeerSeedsFromHintModel(t *testing.T) {
	hints := []core.PeeringInfo{{PeeringID: "B", CDN: "cdnX", HeadroomBps: 2e6}}
	data, err := json.Marshal(hints)
	if err != nil {
		t.Fatal(err)
	}
	fetchedAt := time.Now().Add(-42 * time.Second).UTC()
	hintModel := projection.NewHints()
	hintModel.FoldPoll(journal.PollRecord{Source: "http://other/", At: fetchedAt.Add(-time.Hour), Data: []byte(`[]`)})
	hintModel.FoldPoll(journal.PollRecord{Source: "http://peer/", At: fetchedAt, Data: data})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	snap := pollPeer(ctx, "http://peer/", "tok", time.Hour, nil, hintModel, nil)
	v, at, ok := snap.Get()
	if !ok {
		t.Fatal("snapshot not seeded")
	}
	if !at.Equal(fetchedAt) {
		t.Fatalf("seeded at %v, want original fetch time %v", at, fetchedAt)
	}
	if !reflect.DeepEqual(v, hints) {
		t.Fatalf("seeded value %+v, want %+v", v, hints)
	}
}

// TestHistorySummariesEndpoint: a journaled boot's history is queryable at
// any stream offset; the newest offset equals the live surface, offset 0
// is empty, and out-of-range offsets are client errors.
func TestHistorySummariesEndpoint(t *testing.T) {
	dir := t.TempDir()
	w, err := journal.Open(journal.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	eng, qoeModel, _, _, err := buildEngine(w)
	if err != nil {
		t.Fatal(err)
	}
	src := apppSources(eng, qoeModel)
	liveSums := src.QoESummaries()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := journal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(newRouter(nil, "", nil, summariesHistory(rec), nil))
	defer ts.Close()

	get := func(q string) (int, *struct {
		Offset    int               `json:"offset"`
		MaxOffset int               `json:"max_offset"`
		Data      []core.QoESummary `json:"data"`
	}) {
		resp, err := http.Get(ts.URL + "/v1/history/summaries" + q)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return resp.StatusCode, nil
		}
		out := &struct {
			Offset    int               `json:"offset"`
			MaxOffset int               `json:"max_offset"`
			Data      []core.QoESummary `json:"data"`
		}{}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}

	// Newest offset reproduces the live surface.
	code, hr := get("")
	if code != http.StatusOK {
		t.Fatalf("history status = %d", code)
	}
	if hr.Offset != len(rec.Stream) || hr.MaxOffset != len(rec.Stream) {
		t.Fatalf("newest offset = %d/%d, want %d", hr.Offset, hr.MaxOffset, len(rec.Stream))
	}
	if !reflect.DeepEqual(hr.Data, liveSums) {
		t.Fatalf("historical summaries at the end differ from live:\n%+v\n%+v", hr.Data, liveSums)
	}

	// Offset 0 is the empty beginning of history.
	if code, hr = get("?offset=0"); code != http.StatusOK || len(hr.Data) != 0 {
		t.Fatalf("offset 0 → %d with %d summaries, want empty", code, len(hr.Data))
	}

	// A mid-history offset must answer without error (fewer or equal
	// groups than the end).
	if code, hr = get("?offset=100"); code != http.StatusOK || len(hr.Data) > len(liveSums) {
		t.Fatalf("offset 100 → %d with %d summaries", code, len(hr.Data))
	}

	// Beyond the end is a client error.
	if code, _ = get("?offset=1000000"); code != http.StatusBadRequest {
		t.Fatalf("beyond-end offset → %d, want 400", code)
	}
}

// TestDemoNetworkReplaysAcrossRestart pins the control plane's crash
// story: a restart materializes the demo network from the journaled op
// log, so the seeded flows and any operator capacity edits (impairments)
// survive a kill -9 instead of resetting to the pristine topology.
func TestDemoNetworkReplaysAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	w, err := journal.Open(journal.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	eng, _, _, _, err := buildEngine(w)
	if err != nil {
		t.Fatal(err)
	}
	shared, topo, err := buildDemoNetwork(eng, nil)
	if err != nil {
		t.Fatal(err)
	}
	if shared.NumFlows() != 12 {
		t.Fatalf("seeded %d flows, want 12", shared.NumFlows())
	}
	throttled := topo.Links()[1].ID
	shared.SetLinkCapacity(throttled, 25e6)
	shared.Commit()
	shared.Close()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := journal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := journal.Open(journal.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	eng2, _, _, _, err := buildEngine(w2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng2.Resume(rec); err != nil {
		t.Fatal(err)
	}
	shared2, topo2, err := buildDemoNetwork(eng2, rec)
	if err != nil {
		t.Fatal(err)
	}
	defer shared2.Close()
	if shared2.NumFlows() != 12 {
		t.Fatalf("replayed %d flows, want 12", shared2.NumFlows())
	}
	if got := shared2.Snapshot().Capacity(topo2.Links()[1].ID); got != 25e6 {
		t.Fatalf("replayed capacity = %v, want the journaled throttle 25e6", got)
	}
}

func TestInfpSourcesServeI2A(t *testing.T) {
	client := serveRole(t, infpSources())
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	all, err := client.PeeringInfo(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("peering infos = %d, want 3", len(all))
	}
	onlyX, err := client.PeeringInfo(ctx, "cdnX")
	if err != nil {
		t.Fatal(err)
	}
	if len(onlyX) != 2 {
		t.Errorf("cdnX peering infos = %d, want 2", len(onlyX))
	}
	current := 0
	for _, p := range onlyX {
		if p.Current {
			current++
		}
	}
	if current != 1 {
		t.Errorf("current egress flags = %d, want exactly 1", current)
	}

	att, err := client.Attribution(ctx, "cdnX")
	if err != nil {
		t.Fatal(err)
	}
	if att.Segment != eona.SegmentPeering {
		t.Errorf("attribution segment = %v, want peering", att.Segment)
	}
	if _, err := client.Attribution(ctx, "cdnZ"); err == nil {
		t.Error("unknown CDN attribution should 404")
	}

	hints, err := client.ServerHints(ctx, "cdnX", "west")
	if err != nil {
		t.Fatal(err)
	}
	if len(hints) != 2 || hints[0].Cluster != "west" {
		t.Errorf("hints = %+v", hints)
	}
}

// TestSummariesUnderConcurrentIngest pins that the A2I sources read the QoE
// model under Engine.Read: the engine folds AppendIngest into the same
// lock-free read model the looking glass serves, so a bare source races
// with every ingest (run under -race).
func TestSummariesUnderConcurrentIngest(t *testing.T) {
	eng, qoeModel, _, _, err := buildEngine(nil)
	if err != nil {
		t.Fatal(err)
	}
	store := eona.NewAuthStore()
	store.Register("demo-token", "demo", eona.ScopeAdmin)
	ts := httptest.NewServer(newRouter(eona.NewServer(store, nil, apppSources(eng, qoeModel)), "", nil, nil, nil))
	defer ts.Close()

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		rec := eona.RecordFrom(eona.DefaultModel(), eona.SessionMetrics{PlayTime: time.Minute, AvgBitrate: 1e6},
			"s", "demo-vod", "isp-a", "cdnX", "east", 0)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			rec.Timestamp = time.Duration(i) * time.Millisecond
			if err := eng.AppendIngest(rec); err != nil {
				t.Errorf("AppendIngest: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 50; i++ {
		for _, path := range []string{"/v1/a2i/summaries", "/v1/a2i/traffic"} {
			req, err := http.NewRequest("GET", ts.URL+path, nil)
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Authorization", "Bearer demo-token")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s = %d", path, resp.StatusCode)
			}
		}
	}
	close(stop)
	<-done
}
