// Command eona-lg runs a standalone EONA looking-glass server — the
// queryable interface endpoint §3 proposes ("InfPs and AppPs can establish
// 'looking glass'-like servers that can be queried to implement the
// respective interfaces").
//
// It can serve either side:
//
//	eona-lg -role appp -addr :8080 -token demo-token
//	    serves A2I: /v1/a2i/summaries, /v1/a2i/traffic
//	eona-lg -role infp -addr :8081 -token demo-token
//	    serves I2A: /v1/i2a/peering, /v1/i2a/attribution, /v1/i2a/hints
//
// Requests need "Authorization: Bearer <token>". The demo data is a small
// deterministic synthetic state so the endpoints are immediately
// explorable:
//
//	curl -H 'Authorization: Bearer demo-token' \
//	    http://localhost:8081/v1/i2a/peering?cdn=cdnX
//
// With -peer the server also polls a partner looking glass for its I2A
// peering hints, through the hardened poller (per-attempt timeouts,
// exponential backoff, circuit breaker, confidence decay). The poller's
// robustness counters are exported unauthenticated at GET /v1/health:
//
//	eona-lg -role appp -peer http://localhost:8081 -peer-token demo-token
//	curl http://localhost:8080/v1/health
//
// With -journal the server is crash-safe, and its query state is served
// from incremental projections (internal/projection): collector ingests
// and partner poll results are journaled through a projection engine that
// folds them into offset-checkpointed read models. A restart resumes each
// read model from its last committed checkpoint and refolds only the
// record tail — O(checkpoint delta), not O(history) — and the poller's
// snapshot warm-starts from the hint read model instead of waiting out a
// poll interval:
//
//	eona-lg -role appp -journal /var/lib/eona/lg.journal
//	kill -9 <pid>; eona-lg -role appp -journal /var/lib/eona/lg.journal
//	# summaries identical across the kill
//
// A journaled server also answers historical queries — time travel over
// the read models, unauthenticated like /v1/health:
//
//	curl 'http://localhost:8080/v1/history/summaries?offset=120'
//	    the QoE summaries as they stood after the first 120 journal
//	    records (omit offset, or -1, for the newest journaled state)
//
// Unless -netsim=false, the server also runs a small demo network (the
// Figure 5 topology shape) through a netsim.SharedNetwork and mounts the
// live control plane on the same /v1 surface: inspection endpoints
// (/v1/topology, /v1/links, /v1/flows, /v1/components, /v1/stats), an SSE
// metrics stream (/v1/stream), interactive impairments (/v1/impairments)
// and an embedded operations dashboard at /dashboard. Inspection needs
// scope ctl:read, impairments ctl:write; the -token admin grant covers
// both. With -journal, every interactive impairment is journaled — the op
// and its fault-event annotation replay across kill -9 like scripted
// chaos, and eona-trace lists them.
//
//	curl -H 'Authorization: Bearer demo-token' \
//	    -d '{"kind":"link-throttle","link":"peering-B","factor":0.2}' \
//	    http://localhost:8080/v1/impairments
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"eona"
	"eona/internal/core"
	"eona/internal/ctlplane"
	"eona/internal/faults"
	"eona/internal/journal"
	"eona/internal/lookingglass"
	"eona/internal/netsim"
	"eona/internal/projection"
	"eona/internal/web"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	role := flag.String("role", "infp", "which side to serve: appp (A2I) or infp (I2A)")
	token := flag.String("token", "demo-token", "bearer token granted full access")
	rate := flag.Float64("rate", 50, "requests/second allowed per collaborator")
	peer := flag.String("peer", "", "base URL of a partner looking glass to poll for I2A peering hints (optional)")
	peerToken := flag.String("peer-token", "demo-token", "bearer token for the partner looking glass")
	peerInterval := flag.Duration("peer-interval", 10*time.Second, "partner polling interval")
	journalDir := flag.String("journal", "", "journal directory: persist ingests and poll results, recover them on restart (optional)")
	journalSync := flag.String("journal-sync", "append", "journal fsync policy: append | rotate | never")
	netsimOn := flag.Bool("netsim", true, "run the demo network and mount the live control plane + dashboard")
	flag.Parse()

	store := eona.NewAuthStore()
	store.Register(*token, "demo-collaborator", eona.ScopeAdmin)
	limiter := eona.NewRateLimiter(*rate, *rate*2)

	var jw *journal.Writer
	var recovered *journal.Recovered
	if *journalDir != "" {
		pol, err := journal.ParseSyncPolicy(*journalSync)
		if err != nil {
			log.Fatalf("eona-lg: %v", err)
		}
		recovered, err = journal.Recover(*journalDir)
		if err != nil {
			log.Fatalf("eona-lg: %v", err)
		}
		jw, err = journal.Open(journal.Config{Dir: *journalDir, Sync: pol})
		if err != nil {
			log.Fatalf("eona-lg: %v", err)
		}
		defer jw.Close()
	}

	eng, qoeModel, hintModel, utilModel, err := buildEngine(jw)
	if err != nil {
		log.Fatalf("eona-lg: %v", err)
	}
	if recovered != nil {
		stats, err := eng.Resume(recovered)
		if err != nil {
			log.Fatalf("eona-lg: resume read models: %v", err)
		}
		log.Printf("eona-lg: journal %s: %d records (%d ingests, %d polls, %d torn bytes discarded); resumed qoe from tail %d, hints from tail %d",
			*journalDir, len(recovered.Stream), len(recovered.Ingests), len(recovered.Polls),
			recovered.TruncatedBytes, stats.TailFolded[qoeModel.Name()], stats.TailFolded[hintModel.Name()])
	}

	var src eona.Sources
	switch *role {
	case "appp":
		src = apppSources(eng, qoeModel)
	case "infp":
		src = infpSources()
	default:
		fmt.Fprintf(os.Stderr, "eona-lg: unknown role %q (want appp or infp)\n", *role)
		os.Exit(2)
	}

	start := time.Now()
	var live *faults.Live
	if *peer != "" {
		live = faults.NewLive(faults.WallClock(start))
	}

	var snap *lookingglass.Snapshot[[]core.PeeringInfo]
	if *peer != "" {
		snap = pollPeer(context.Background(), *peer, *peerToken, *peerInterval, eng, hintModel, live)
		log.Printf("eona-lg: polling partner %s every %v", *peer, *peerInterval)
	}

	var history http.HandlerFunc
	if recovered != nil {
		history = summariesHistory(recovered)
	}

	var ctl *ctlplane.Server
	if *netsimOn {
		shared, topo, err := buildDemoNetwork(eng, recovered)
		if err != nil {
			log.Fatalf("eona-lg: demo network: %v", err)
		}
		defer shared.Close()
		ctl, err = ctlplane.New(ctlplane.Config{
			Shared:   shared,
			Topo:     topo,
			Engine:   eng,
			LinkUtil: utilModel,
			QoE:      qoeModel,
			Partner:  live,
			Clock:    faults.WallClock(start),
			Logf:     log.Printf,
		})
		if err != nil {
			log.Fatalf("eona-lg: control plane: %v", err)
		}
		log.Printf("eona-lg: control plane on /v1 (%d links, %d flows); dashboard at /dashboard",
			topo.NumLinks(), shared.NumFlows())
	}

	srv := eona.NewServer(store, limiter, src)
	srv.Logf = log.Printf
	log.Printf("eona-lg: serving %s looking glass on %s (wire %s)", *role, *addr, eona.WireVersion)
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           newRouter(srv, *peer, snap, history, ctl),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      10 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
	if err := httpSrv.ListenAndServe(); err != nil {
		log.Fatalf("eona-lg: %v", err)
	}
}

// collectorConfig is the demo AppP's collector shape, shared by the live
// QoE read model and historical materializations so time-travel answers
// come from the same blinding policy the live surface applies.
func collectorConfig() core.CollectorConfig {
	return core.CollectorConfig{
		AppP:   "demo-vod",
		Policy: core.ExportPolicy{MinGroupSessions: 2},
		Window: 5 * time.Minute,
		Seed:   42,
	}
}

// buildEngine assembles the server's projection engine: the QoE rollup,
// I2A hint, and link-utilization read models folding every journaled
// record. With jw nil the engine runs fold-only — read models stay live,
// nothing persists.
func buildEngine(jw *journal.Writer) (*projection.Engine, *projection.QoE, *projection.Hints, *projection.LinkUtil, error) {
	qoeModel := projection.NewQoE(collectorConfig())
	hintModel := projection.NewHints()
	utilModel := projection.NewLinkUtil()
	eng, err := projection.NewEngine(projection.Config{Writer: jw, CheckpointEvery: 64}, qoeModel, hintModel, utilModel)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return eng, qoeModel, hintModel, utilModel, nil
}

// demoTopology is the control plane's demo network: the Figure 5 shape —
// a client access link into isp-a, two peering paths toward cdnX (the
// congested B and the spare-capacity C), and a transit path toward cdnY.
func demoTopology() *netsim.Topology {
	topo := netsim.NewTopology()
	topo.AddLink("clients", "isp-a", 100e6, 5*time.Millisecond, "access")
	topo.AddLink("isp-a", "cdnX", 100e6, 10*time.Millisecond, "peering-B")
	topo.AddLink("isp-a", "cdnX", 400e6, 12*time.Millisecond, "peering-C")
	topo.AddLink("isp-a", "cdnY", 80e6, 15*time.Millisecond, "transit-Y")
	return topo
}

// buildDemoNetwork owns the control plane's network lifecycle. On a fresh
// boot it journals the topology, builds the shared network and seeds the
// demo flows through it — so every seed op is journaled too. On a restart
// from a journal that already carries a topology it replays the op log
// instead (MaterializeAt over every op), which reproduces the crashed
// process's network — seeded flows, operator impairments and all — and
// resumes journaling from there.
func buildDemoNetwork(eng *projection.Engine, rec *journal.Recovered) (*netsim.SharedNetwork, *netsim.Topology, error) {
	if rec != nil && rec.Topo != nil {
		net, _, err := rec.MaterializeAt(len(rec.Ops))
		if err != nil {
			return nil, nil, err
		}
		shared := netsim.NewShared(net, netsim.SharedConfig{Journal: eng, SnapshotEvery: 32})
		log.Printf("eona-lg: demo network replayed from journal (%d ops, %d flows)",
			len(rec.Ops), shared.NumFlows())
		return shared, net.Topology(), nil
	}
	topo := demoTopology()
	if err := eng.AppendTopology(netsim.ExportTopology(topo)); err != nil {
		return nil, nil, err
	}
	net := netsim.NewNetwork(topo)
	shared := netsim.NewShared(net, netsim.SharedConfig{Journal: eng, SnapshotEvery: 32})
	seedDemoFlows(shared, topo)
	return shared, topo, nil
}

// seedDemoFlows starts a deterministic set of sessions across the three
// egress paths so the dashboard has live traffic to show.
func seedDemoFlows(shared *netsim.SharedNetwork, topo *netsim.Topology) {
	links := topo.Links()
	access := links[0]
	egress := []*netsim.Link{links[1], links[2], links[3]}
	for i := 0; i < 12; i++ {
		path := netsim.Path{access, egress[i%3]}
		shared.StartFlow(path, float64(2+i%4)*1e6, fmt.Sprintf("sess-%02d", i))
	}
	shared.Commit()
}

// summariesHistory serves GET /v1/history/summaries over the journal as
// recovered at boot: MaterializeAt rebuilds the QoE read model at the
// requested stream offset in O(distance to its nearest checkpoint).
func summariesHistory(rec *journal.Recovered) http.HandlerFunc {
	return lookingglass.HistoryHandler(
		func() int { return len(rec.Stream) },
		func(offset int) (any, error) {
			q := projection.NewQoE(collectorConfig())
			if err := projection.MaterializeAt(rec, offset, q); err != nil {
				return nil, err
			}
			return q.Summaries(), nil
		})
}

// pollPeer starts the hardened background poller against a partner looking
// glass: per-attempt timeouts, jittered exponential backoff while the
// partner is failing, a circuit breaker that probes half-open after a
// cooldown, and hint confidence decaying on ten polling intervals. Every
// successful poll is appended through the projection engine — journaled
// when one is attached, and folded into the hint read model either way —
// and the snapshot warm-starts from that read model's newest hint for this
// peer: confidence decays from its original fetch time, so a restart
// inherits last-known-good hints at an honest trust level instead of
// starting blind.
// A non-nil live gate threads the control plane's partner impairments into
// the fetch path: operator-injected outages and latency spikes hit this
// poller exactly like real partner failures would.
func pollPeer(ctx context.Context, base, token string, interval time.Duration, eng *projection.Engine, hintModel *projection.Hints, live *faults.Live) *lookingglass.Snapshot[[]core.PeeringInfo] {
	client := lookingglass.NewClient(base, token, nil)
	fetch := faults.Gate(live, func(ctx context.Context) ([]core.PeeringInfo, error) {
		v, err := client.PeeringInfo(ctx, "")
		if err == nil && eng != nil {
			if data, merr := json.Marshal(v); merr == nil {
				_ = eng.AppendPoll(journal.PollRecord{Source: base, At: time.Now().UTC(), Data: data})
			}
		}
		return v, err
	})
	snap, _ := lookingglass.PollWith(ctx, lookingglass.PollConfig{
		Interval: interval,
		HalfLife: 10 * interval,
	}, fetch)
	if hintModel != nil {
		if pr, ok := hintModel.Latest(base); ok {
			var v []core.PeeringInfo
			if err := json.Unmarshal(pr.Data, &v); err == nil {
				snap.Seed(v, pr.At)
			}
		}
	}
	return snap
}

// newRouter composes the whole /v1 surface onto one route registry: the
// looking-glass endpoints (scoped a2i:read / i2a:read), the unauthenticated
// operational endpoints (/v1/health always, /v1/history/summaries when the
// server is journal-backed), and — when the control plane is up — its
// inspection/impairment/stream routes plus the dashboard page. Every
// registered route shares the registry's bearer-token guard and the unified
// {"error":{...}} envelope. A nil srv (tests) yields a registry with no
// scoped routes.
func newRouter(srv *lookingglass.Server, peer string, snap *lookingglass.Snapshot[[]core.PeeringInfo], history http.HandlerFunc, ctl *ctlplane.Server) http.Handler {
	var rt *lookingglass.Routes
	if srv != nil {
		rt = srv.Routes()
	} else {
		rt = lookingglass.NewRoutes(nil, nil)
	}
	rt.HandleFunc("GET", "/v1/health", healthHandler(peer, snap))
	if history != nil {
		rt.HandleFunc("GET", "/v1/history/summaries", history)
	}
	if ctl != nil {
		ctl.Register(rt)
		dash := web.DashboardHandler()
		rt.HandleFunc("GET", "/", dash)
		rt.HandleFunc("GET", "/dashboard", dash)
	}
	return rt.Handler()
}

// healthPayload is the GET /v1/health document: the partner poller's
// robustness counters, or just {"breaker":"disabled"} when no partner is
// configured.
type healthPayload struct {
	Peer                string                       `json:"peer,omitempty"`
	Breaker             string                       `json:"breaker"`
	Confidence          float64                      `json:"confidence"`
	Polls               uint64                       `json:"polls"`
	Successes           uint64                       `json:"successes"`
	Failures            uint64                       `json:"failures"`
	Retries             uint64                       `json:"retries"`
	Skipped             uint64                       `json:"skipped"`
	ConsecutiveFailures int                          `json:"consecutive_failures"`
	BreakerCounters     lookingglass.BreakerCounters `json:"breaker_counters"`
	LastSuccess         *time.Time                   `json:"last_success,omitempty"`
	LastAttempt         *time.Time                   `json:"last_attempt,omitempty"`
}

func healthHandler(peer string, snap *lookingglass.Snapshot[[]core.PeeringInfo]) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if snap == nil {
			json.NewEncoder(w).Encode(healthPayload{Breaker: "disabled"})
			return
		}
		h := snap.Health(time.Now())
		p := healthPayload{
			Peer:                peer,
			Breaker:             h.Breaker.String(),
			Confidence:          h.Confidence,
			Polls:               h.Polls,
			Successes:           h.Successes,
			Failures:            h.Failures,
			Retries:             h.Retries,
			Skipped:             h.Skipped,
			ConsecutiveFailures: h.ConsecutiveFailures,
			BreakerCounters:     h.BreakerCounters,
		}
		if !h.LastSuccess.IsZero() {
			p.LastSuccess = &h.LastSuccess
		}
		if !h.LastAttempt.IsZero() {
			p.LastAttempt = &h.LastAttempt
		}
		json.NewEncoder(w).Encode(p)
	}
}

// apppSources builds an AppP's A2I surfaces from the QoE read model. On a
// first boot (nothing folded yet) the deterministic synthetic session
// stream is fed through the engine — journaled when a journal is attached,
// folded into the read model either way. On a restart the caller has
// already Resumed the engine, so the read model holds the journaled
// history and the synthetic feed is skipped: the rollups come back exactly
// as the crashed process had them, without re-journaling history. The read
// model has no lock of its own, so both sources query it under Engine.Read.
func apppSources(eng *projection.Engine, qoeModel *projection.QoE) eona.Sources {
	if qoeModel.Ingested() == 0 {
		feedSyntheticSessions(eng)
	}
	return eona.Sources{
		QoESummaries: func() (out []eona.QoESummary) {
			eng.Read(func() { out = qoeModel.Summaries() })
			return out
		},
		TrafficEstimates: func() (out []eona.TrafficEstimate) {
			eng.Read(func() { out = qoeModel.TrafficEstimates(200 * time.Second) })
			return out
		},
	}
}

// feedSyntheticSessions ingests the deterministic demo session stream
// through the projection engine.
func feedSyntheticSessions(eng *projection.Engine) {
	model := eona.DefaultModel()
	isps := []string{"isp-a", "isp-b"}
	cdns := []string{"cdnX", "cdnY"}
	for i := 0; i < 200; i++ {
		m := eona.SessionMetrics{
			StartupDelay:  time.Duration(500+i%2500) * time.Millisecond,
			PlayTime:      time.Duration(5+i%20) * time.Minute,
			BufferingTime: time.Duration(i%30) * time.Second,
			AvgBitrate:    float64(1+i%4) * 1e6,
		}
		if err := eng.AppendIngest(eona.RecordFrom(model, m,
			fmt.Sprintf("s%03d", i), "demo-vod", isps[i%2], cdns[i%3%2], "east",
			time.Duration(i)*time.Second)); err != nil {
			log.Printf("eona-lg: journal ingest: %v", err)
		}
	}
}

// infpSources builds an InfP's I2A surfaces over a synthetic peering state
// resembling the paper's Figure 5.
func infpSources() eona.Sources {
	peering := []eona.PeeringInfo{
		{PeeringID: "B", CDN: "cdnX", Congestion: 3, HeadroomBps: 2e6, CapacityBps: 100e6, Current: true},
		{PeeringID: "C", CDN: "cdnX", Congestion: 0, HeadroomBps: 310e6, CapacityBps: 400e6},
		{PeeringID: "C", CDN: "cdnY", Congestion: 0, HeadroomBps: 310e6, CapacityBps: 400e6},
	}
	return eona.Sources{
		PeeringInfo: func(cdnName string) []eona.PeeringInfo {
			if cdnName == "" {
				return peering
			}
			var out []eona.PeeringInfo
			for _, p := range peering {
				if p.CDN == cdnName {
					out = append(out, p)
				}
			}
			return out
		},
		Attribution: func(cdnName string) (eona.Attribution, bool) {
			if cdnName != "cdnX" {
				return eona.Attribution{}, false
			}
			return eona.Attribution{
				CDN:     "cdnX",
				Segment: eona.SegmentPeering,
				Level:   3,
			}, true
		},
		ServerHints: func(cdnName, cluster string) []eona.ServerHint {
			if cluster == "" {
				cluster = "east"
			}
			return []eona.ServerHint{
				{ServerID: cluster + "-s01", Cluster: cluster, Load: 0.35, CacheLikely: true},
				{ServerID: cluster + "-s02", Cluster: cluster, Load: 0.60, CacheLikely: true},
			}
		},
	}
}
