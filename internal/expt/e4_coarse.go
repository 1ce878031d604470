package expt

import (
	"fmt"
	"math/rand"
	"time"

	"eona/internal/cdn"
	"eona/internal/control"
	"eona/internal/netsim"
	"eona/internal/player"
	"eona/internal/qoe"
	"eona/internal/sim"
	"eona/internal/workload"
)

// E4 — §2 "coarse control": intra-CDN server switching via I2A hints.
//
// Paper claim: "if a video player detects an issue with a particular server
// within a CDN, it has no choice but to switch to an alternative CDN ...
// e.g., if the alternative CDN does not have the content in its cache yet.
// In this case, if the CDN can provide hints on alternative servers, the
// video player can reconnect to a different server and continue to play the
// video. By retaining the traffic the CDN can retain its share of revenue
// and by exploiting intra-CDN caching the application will experience less
// disruption."
//
// A server inside CDN X's (cache-warm) cluster fails mid-run. Baseline
// sessions on it can only switch to CDN Y — whose cache is cold, so the
// reconnect pays an origin fetch and the player restarts conservatively.
// EONA sessions follow the CDN's alternative-server hint to a sibling
// server behind the same warm cache and keep playing.

// E4Config parameterizes the scenario.
type E4Config struct {
	Seed    int64
	EONA    bool
	Horizon time.Duration // default 10 min
	// ArrivalRate is sessions/s; default 0.8.
	ArrivalRate float64
	// FailAt is when server east-s00 dies. Default 4 min.
	FailAt time.Duration
}

func (c *E4Config) applyDefaults() {
	if c.Horizon == 0 {
		c.Horizon = 10 * time.Minute
	}
	if c.ArrivalRate == 0 {
		c.ArrivalRate = 0.8
	}
	if c.FailAt == 0 {
		c.FailAt = 4 * time.Minute
	}
}

// E4Result aggregates the fleet plus the failure-affected cohort.
type E4Result struct {
	Config   E4Config
	Sessions int
	// Affected is the number of sessions on the failed server.
	Affected int
	// Cohort metrics are over affected sessions only.
	CohortMeanScore      float64
	CohortMeanStallSec   float64 // post-failure buffering
	CohortServerSwitches float64
	CohortCDNSwitches    float64
	// CDNXRetention is the fraction of affected sessions still on CDN X
	// at the end ("the CDN can retain its share of revenue").
	CDNXRetention float64
	// WarmHitRatio is CDN X's cluster cache hit ratio; ColdMisses counts
	// origin fetches at CDN Y caused by failovers.
	WarmHitRatio float64
	ColdMisses   uint64
}

// RunE4Arm executes one arm.
func RunE4Arm(cfg E4Config) E4Result {
	cfg.applyDefaults()
	eng := sim.NewEngine(cfg.Seed)
	rng := rand.New(rand.NewSource(cfg.Seed + 2000))

	topo := netsim.NewTopology()
	toX := topo.AddLink("clients", "cdnX-east", 2e9, 5*time.Millisecond, "to-cdnX")
	toY := topo.AddLink("clients", "cdnY-west", 2e9, 8*time.Millisecond, "to-cdnY")
	net := netsim.NewNetwork(topo)

	east := cdn.NewCluster("east", "cdnX-east", 5, 40, 300, 2500*time.Millisecond)
	west := cdn.NewCluster("west", "cdnY-west", 5, 40, 300, 2500*time.Millisecond)

	// A server failure trips many monitors at the same instant; coalesce
	// their reactions into one end-of-tick reallocation.
	coal := control.NewCoalescer(eng, net)

	// CDN X has been serving this catalog all day: warm cache for the
	// popular head. CDN Y is the standby with a cold cache.
	catalog := 500
	for id := 0; id < 200; id++ {
		east.Cache.Warm(cdn.ContentID(id))
	}

	ladder := []float64{300e3, 750e3, 1.5e6, 3e6}
	model := qoe.DefaultModel()
	model.MaxBitrate = ladder[len(ladder)-1]
	zipf := workload.NewZipf(rng, 1.2, catalog)

	type session struct {
		p       *player.Player
		content cdn.ContentID
		assign  *cdn.Assignment
		curFlow *netsim.Flow
		onCDNX  bool
		// stallBefore snapshots buffering at failure time.
		stallBefore time.Duration
		affected    bool
	}
	var all []*session
	coldMisses := uint64(0)

	connectVia := func(s *session, link *netsim.Link, a *cdn.Assignment) player.Conn {
		f := net.StartFlow(netsim.Path{link}, 0, "session")
		s.curFlow = f
		return &player.FlowConn{Net: net, Flow: f, OnClose: func() {
			net.StopFlow(f)
			a.Release()
		}}
	}

	react := func(s *session) func(*control.Monitor, control.Reason) {
		return func(m *control.Monitor, r control.Reason) {
			if s.p.Done() || !s.onCDNX {
				return
			}
			if cfg.EONA {
				// I2A hint: alternative servers in the same
				// cluster, least-loaded first.
				alts := east.Alternatives(s.assign.Server)
				if len(alts) > 0 {
					na, err := east.AssignTo(alts[0], s.content)
					if err == nil {
						s.assign = na
						// Server switch = one batched
						// reallocation: new flow + old
						// flow teardown together.
						net.Batch(func() {
							s.p.Redirect(connectVia(s, toX, na), 300*time.Millisecond+na.StartupPenalty, player.SwitchServer)
						})
						return
					}
				}
			}
			// Baseline (or EONA with no hint available): whole-CDN
			// switch to the cold standby.
			na, err := west.Assign(s.content)
			if err != nil {
				return
			}
			if !na.CacheHit {
				coldMisses++
			}
			s.assign = na
			s.onCDNX = false
			net.Batch(func() {
				s.p.Redirect(connectVia(s, toY, na), time.Second+na.StartupPenalty, player.SwitchCDN)
			})
		}
	}

	arrivals := workload.Arrivals(rng, workload.Constant(cfg.ArrivalRate), cfg.ArrivalRate, cfg.Horizon-2*time.Minute)
	for i, at := range arrivals {
		i := i
		at := at
		eng.ScheduleAt(at, func(e *sim.Engine) {
			content := cdn.ContentID(zipf.Draw())
			a, err := east.Assign(content)
			if err != nil {
				return // CDN X full; arrival lost
			}
			s := &session{content: content, assign: a, onCDNX: true}
			dur := time.Duration(rng.ExpFloat64()*float64(150*time.Second)) + 45*time.Second
			s.p = player.New(e, player.Config{
				Ladder:       ladder,
				ABR:          player.RateBased{Safety: 0.85},
				BufferTarget: 8 * time.Second,
			}, dur)
			s.p.Start(connectVia(s, toX, a), 500*time.Millisecond+a.StartupPenalty)
			control.NewMonitor(e, s.p, control.MonitorConfig{NoProgressAfter: 6 * time.Second, Coalesce: coal}, react(s))
			all = append(all, s)
			_ = i
		})
	}

	// The failure: server east-s00 dies. Its sessions' flows stop
	// delivering (the conn stays attached reading Rate()=0, starving
	// the player until its monitor reacts).
	eng.ScheduleAt(cfg.FailAt, func(e *sim.Engine) {
		east.Servers[0].SetHealthy(false)
		// Mass churn: every affected flow stops in one batched
		// reallocation.
		net.Batch(func() {
			for _, s := range all {
				if s.p.Done() || !s.onCDNX || s.assign.Server != east.Servers[0] {
					continue
				}
				s.affected = true
				s.stallBefore = s.p.Metrics().BufferingTime
				net.StopFlow(s.curFlow)
			}
		})
	})

	eng.Run(cfg.Horizon)

	res := E4Result{Config: cfg}
	hits, misses := east.Cache.Stats()
	if hits+misses > 0 {
		res.WarmHitRatio = float64(hits) / float64(hits+misses)
	}
	res.ColdMisses = coldMisses
	for _, s := range all {
		m := s.p.Metrics()
		if m.PlayTime+m.BufferingTime < 5*time.Second {
			continue
		}
		res.Sessions++
		if !s.affected {
			continue
		}
		res.Affected++
		res.CohortMeanScore += model.Score(m)
		res.CohortMeanStallSec += (m.BufferingTime - s.stallBefore).Seconds()
		res.CohortServerSwitches += float64(m.ServerSwitches)
		res.CohortCDNSwitches += float64(m.CDNSwitches)
		if s.onCDNX {
			res.CDNXRetention++
		}
	}
	if res.Affected > 0 {
		n := float64(res.Affected)
		res.CohortMeanScore /= n
		res.CohortMeanStallSec /= n
		res.CohortServerSwitches /= n
		res.CohortCDNSwitches /= n
		res.CDNXRetention /= n
	}
	return res
}

// E4Pair holds both arms.
type E4Pair struct {
	Baseline, EONA E4Result
}

// RunE4 executes both arms with identical workloads and failure.
func RunE4(seed int64) E4Pair {
	return E4Pair{
		Baseline: RunE4Arm(E4Config{Seed: seed}),
		EONA:     RunE4Arm(E4Config{Seed: seed, EONA: true}),
	}
}

// Table renders the comparison.
func (r E4Pair) Table() *Table {
	t := &Table{
		Title: "E4 (§2 coarse control): server failure — CDN switch vs I2A server hint",
		Columns: []string{"arm", "affected sessions", "cohort score", "post-failure stall (s)",
			"server switches", "CDN switches", "CDN X retention"},
	}
	for _, row := range []struct {
		name string
		res  E4Result
	}{{"baseline (whole-CDN switch)", r.Baseline}, {"EONA (alternative-server hint)", r.EONA}} {
		t.AddRow(row.name,
			fmt.Sprintf("%d", row.res.Affected),
			Cell(row.res.CohortMeanScore),
			Cell(row.res.CohortMeanStallSec),
			Cell(row.res.CohortServerSwitches),
			Cell(row.res.CohortCDNSwitches),
			Cell(row.res.CDNXRetention))
	}
	t.Notes = append(t.Notes,
		"paper: with server hints 'the video player can reconnect to a different server and continue to play'",
		"paper: 'by retaining the traffic the CDN can retain its share of revenue'")
	return t
}
