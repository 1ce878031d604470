package expt

import (
	"fmt"
	"math/rand"
	"time"

	"eona/internal/control"
	"eona/internal/core"
	"eona/internal/isp"
	"eona/internal/netsim"
	"eona/internal/player"
	"eona/internal/qoe"
	"eona/internal/sim"
	"eona/internal/workload"
)

// E1 — Figure 3: flash crowd congests the ISP access network.
//
// Paper claim: "the application-level control loop (i.e., HTTP adaptive
// player control logic) first tried to switch across multiple CDNs but
// clients still see very high buffering ... if the AppP could have known
// explicit congestion signals from the ISP, it should have adapted the
// video bitrate to make the ISP less congested and avoid buffering."
//
// A fleet of buffer-based adaptive players (live-event parameters: small
// buffers, segment-committed adaptation — the occupancy-driven rung
// overshoot and interaction pathology of [28,36]) rides a flash-crowd
// arrival spike behind a 60 Mbps access link with two well-provisioned CDNs
// beyond it.
// The baseline arm reacts to buffering the only way it can — switching
// CDNs (futile: the bottleneck is the access link, and every switch costs
// a reconnect outage and a conservative restart). The EONA arm polls the
// ISP's I2A attribution; on access congestion it caps every player's
// bitrate at the ISP's suggested sustainable per-session rate and
// suppresses pointless CDN switching.

// E1Config parameterizes the scenario.
type E1Config struct {
	Seed      int64
	EONA      bool
	AccessBps float64       // default 60 Mbps
	Horizon   time.Duration // default 16 min
	// Crowd shape (sessions/s): default base 0.12 → peak 1.2.
	BaseRate, PeakRate float64
	// UniformCap (ablation) applies the suggested per-session budget as
	// one fleet-wide cap instead of the mixed-rung realization, rounding
	// the whole fleet down a ladder rung.
	UniformCap bool
	// Trace, when non-nil, replays a recorded workload (see
	// workload.ReadTrace / cmd/eona-trace) instead of generating one.
	Trace []workload.Session
}

func (c *E1Config) applyDefaults() {
	if c.AccessBps == 0 {
		c.AccessBps = 60e6
	}
	if c.Horizon == 0 {
		c.Horizon = 16 * time.Minute
	}
	if c.BaseRate == 0 {
		c.BaseRate = 0.12
	}
	if c.PeakRate == 0 {
		c.PeakRate = 1.2
	}
}

// E1Result aggregates fleet experience.
type E1Result struct {
	Config                E1Config
	Sessions              int
	MeanScore             float64
	MeanBufRatio          float64
	MeanBitrateBps        float64
	MeanStartupSec        float64
	CDNSwitchesPerSession float64
	// EngagementMinutes is the mean engagement per session out of an
	// intended 10 minutes (Krishnan-slope model); sessions that never
	// started playing count as zero engagement.
	EngagementMinutes float64
	// ExpectedAbandonRate is the mean startup-abandonment probability
	// over sessions (Krishnan: 5.8%/s of startup delay beyond 2s).
	ExpectedAbandonRate float64
	// CapEpochs counts controller polls during which the EONA cap was
	// active (0 in the baseline arm).
	CapEpochs int
}

const (
	e1CDN1 = "cdn1"
	e1CDN2 = "cdn2"
)

// e1Workload derives the arm's default flash-crowd session list (exposed
// for trace archival tests; RunE1Arm uses it when no Trace is supplied).
func e1Workload(cfg E1Config) []workload.Session {
	cfg.applyDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed + 1000))
	crowd := workload.FlashCrowd{
		Base: cfg.BaseRate, Peak: cfg.PeakRate,
		Start: 3 * time.Minute, RampUp: 30 * time.Second,
		Hold: 8 * time.Minute, Down: time.Minute,
	}
	return workload.Generate(rng, workload.Spec{
		Rate:         crowd.Rate(),
		MaxRate:      cfg.PeakRate,
		Horizon:      cfg.Horizon - 2*time.Minute, // let the tail drain
		MeanDuration: 150 * time.Second,
		MinDuration:  45 * time.Second,
	})
}

// RunE1Arm executes one arm.
func RunE1Arm(cfg E1Config) E1Result {
	cfg.applyDefaults()
	eng := sim.NewEngine(cfg.Seed)

	topo := netsim.NewTopology()
	access := topo.AddLink("clients", "border", cfg.AccessBps, 2*time.Millisecond, "access")
	linkB := topo.AddLink("border", e1CDN1, 1e9, time.Millisecond, "peering-1")
	linkC := topo.AddLink("border", "ixp", 1e9, 3*time.Millisecond, "peering-2")
	topo.AddLink("ixp", e1CDN2, 1e9, time.Millisecond, "ixp-cdn2")
	net := netsim.NewNetwork(topo)

	ispNet := isp.New(net, isp.Config{Name: "isp1", ClientNode: "clients", Border: "border", Access: access})
	ispNet.AddPeering("P1", linkB, e1CDN1)
	ispNet.AddPeering("P2", linkC, e1CDN2)

	// All monitor reactions in one simulated instant — a flash crowd trips
	// many sessions at once — commit as one end-of-tick reallocation.
	coal := control.NewCoalescer(eng, net)

	ladder := []float64{300e3, 750e3, 1.5e6, 3e6}
	baseABR := player.ABR(player.BufferBased{Low: 2 * time.Second, High: 8 * time.Second})
	model := qoe.DefaultModel()
	model.MaxBitrate = ladder[len(ladder)-1]

	sessions := cfg.Trace
	if sessions == nil {
		sessions = e1Workload(cfg)
	}

	collector := core.NewA2ICollector(core.CollectorConfig{AppP: "vod", Window: time.Minute, Seed: cfg.Seed})

	type session struct {
		p   *player.Player
		cdn string
		idx int
	}
	var active []*session
	var all []*session

	// attribution is the ISP's current I2A view for this scenario;
	// updated by the EONA controller's poll.
	attribution := core.Attribution{Segment: core.SegmentNone}
	// The EONA fleet cap: per-session budget B realized as a *mix* of
	// the two adjacent ladder rungs (a uniform cap would round the whole
	// fleet down a rung and waste capacity against a coarse ladder).
	capOn := false
	capLo, capHi := 0.0, 0.0
	capHiFrac := 0.0

	connect := func(cdnName string) (player.Conn, error) {
		dst := netsim.NodeID(cdnName)
		f, err := ispNet.Connect(cdnName, dst, 0, "session")
		if err != nil {
			return nil, err
		}
		return &player.FlowConn{Net: net, Flow: f, OnClose: func() { ispNet.Disconnect(f) }}, nil
	}

	abrFor := func(idx int) player.ABR {
		if !capOn {
			return nil // use configured ABR
		}
		cap := capLo
		if float64(idx%100) < capHiFrac*100 {
			cap = capHi
		}
		return player.Capped{Inner: baseABR, Cap: cap}
	}

	react := func(s *session) func(*control.Monitor, control.Reason) {
		return func(m *control.Monitor, r control.Reason) {
			if cfg.EONA && attribution.Segment == core.SegmentAccess {
				// EONA: the ISP says the bottleneck is the
				// access network — switching CDNs cannot help.
				return
			}
			// Baseline reaction (and EONA reaction to non-access
			// problems): switch to the other CDN. The switch is one
			// batched reallocation: new flow up, old flow down.
			other := e1CDN1
			if s.cdn == e1CDN1 {
				other = e1CDN2
			}
			net.Batch(func() {
				conn, err := connect(other)
				if err != nil {
					return
				}
				s.cdn = other
				s.p.Redirect(conn, 2*time.Second, player.SwitchCDN)
			})
		}
	}

	// Session arrivals.
	for i, ws := range sessions {
		ws := ws
		i := i
		eng.ScheduleAt(ws.Arrival, func(e *sim.Engine) {
			cdnName := e1CDN1
			if i%2 == 1 {
				cdnName = e1CDN2
			}
			// Session setup — flow attach plus the player's initial
			// demand parking — is one batched reallocation.
			var conn player.Conn
			var err error
			s := &session{cdn: cdnName, idx: i}
			net.BeginBatch()
			conn, err = connect(cdnName)
			if err != nil {
				net.EndBatch()
				return
			}
			// Flash crowds are live-event traffic: small buffers
			// (latency-bound), segment-committed adaptation, and
			// conservative smoothing — the regime where
			// misjudged rungs actually stall (cf. [28,36]).
			s.p = player.New(e, player.Config{
				Ladder:        ladder,
				ABR:           baseABR,
				BufferTarget:  10 * time.Second,
				StartupBuffer: 2 * time.Second,
				StallResume:   2 * time.Second,
				AdaptEvery:    8 * time.Second,
				EMAAlpha:      0.15,
			}, ws.IntendedDuration)
			s.p.OverrideABR = abrFor(i)
			sid := fmt.Sprintf("s%04d", i)
			s.p.OnComplete = func(m qoe.SessionMetrics) {
				collector.Ingest(core.RecordFrom(model, m, sid, "vod", "isp1", s.cdn, "-", e.Now()))
			}
			s.p.Start(conn, 500*time.Millisecond)
			net.EndBatch()
			control.NewMonitor(e, s.p, control.MonitorConfig{Coalesce: coal}, react(s))
			active = append(active, s)
			all = append(all, s)
		})
	}

	// EONA AppP controller: poll the ISP's attribution every 5s and
	// apply/lift the fleet-wide bitrate cap with hysteresis.
	capEpochs := 0
	if cfg.EONA {
		eng.Every(5*time.Second, func(e *sim.Engine) bool {
			rep := ispNet.AccessReport()
			n := net.FlowsOn(access.ID)
			switch {
			case rep.Utilization >= 0.90 && n > 0:
				attribution = core.Attribution{
					Segment:         core.SegmentAccess,
					Level:           rep.Congestion,
					SuggestedCapBps: cfg.AccessBps / float64(n),
				}
				// Realize the per-session budget as a mix of
				// the two surrounding rungs.
				budget := attribution.SuggestedCapBps
				capOn = true
				if cfg.UniformCap {
					lo, _, _ := mixRungs(ladder, budget)
					capLo, capHi, capHiFrac = lo, lo, 0
				} else {
					capLo, capHi, capHiFrac = mixRungs(ladder, budget)
				}
			case rep.Utilization < 0.85:
				attribution = core.Attribution{Segment: core.SegmentNone}
				capOn = false
			}
			if capOn {
				capEpochs++
			}
			kept := active[:0]
			for _, s := range active {
				if s.p.Done() {
					continue
				}
				s.p.OverrideABR = abrFor(s.idx)
				kept = append(kept, s)
			}
			active = kept
			return true
		})
	}

	eng.Run(cfg.Horizon)

	res := E1Result{Config: cfg, CapEpochs: capEpochs}
	for _, s := range all {
		m := s.p.Metrics()
		// Score every session that had at least 20s of wall time in
		// the system (startup counts: a session starved in startup
		// is the worst experience, not a non-session).
		if m.PlayTime+m.BufferingTime+m.StartupDelay < 20*time.Second {
			continue
		}
		res.Sessions++
		res.MeanScore += model.Score(m)
		res.MeanBufRatio += m.BufferingRatio()
		res.MeanBitrateBps += m.AvgBitrate
		res.MeanStartupSec += m.StartupDelay.Seconds()
		res.CDNSwitchesPerSession += float64(m.CDNSwitches)
		res.ExpectedAbandonRate += qoe.AbandonmentProbability(m.StartupDelay)
		if m.PlayTime > 0 {
			res.EngagementMinutes += model.EngagementMinutes(m, 10)
		}
	}
	if res.Sessions > 0 {
		n := float64(res.Sessions)
		res.MeanScore /= n
		res.MeanBufRatio /= n
		res.MeanBitrateBps /= n
		res.MeanStartupSec /= n
		res.CDNSwitchesPerSession /= n
		res.EngagementMinutes /= n
		res.ExpectedAbandonRate /= n
	}
	return res
}

// mixRungs expresses a per-session bitrate budget as the pair of adjacent
// ladder rungs bracketing it plus the fraction of sessions that get the
// higher rung, so the fleet's mean demand meets the budget exactly.
func mixRungs(ladder []float64, budget float64) (lo, hi, hiFrac float64) {
	if budget <= ladder[0] {
		return ladder[0], ladder[0], 0
	}
	top := ladder[len(ladder)-1]
	if budget >= top {
		return top, top, 1
	}
	for i := 1; i < len(ladder); i++ {
		if budget < ladder[i] {
			lo, hi = ladder[i-1], ladder[i]
			return lo, hi, (budget - lo) / (hi - lo)
		}
	}
	return top, top, 1
}

// E1Pair holds both arms.
type E1Pair struct {
	Baseline, EONA E1Result
}

// RunE1 executes both arms with identical workloads.
func RunE1(seed int64) E1Pair {
	return E1Pair{
		Baseline: RunE1Arm(E1Config{Seed: seed}),
		EONA:     RunE1Arm(E1Config{Seed: seed, EONA: true}),
	}
}

// Table renders the comparison.
func (r E1Pair) Table() *Table {
	t := &Table{
		Title: "E1 (Figure 3): flash crowd at the ISP access link",
		Columns: []string{"arm", "sessions", "mean QoE score", "buffering ratio",
			"mean bitrate (Mbps)", "CDN switches/session", "engagement (min/10)"},
	}
	for _, row := range []struct {
		name string
		res  E1Result
	}{{"baseline (switch CDNs)", r.Baseline}, {"EONA (I2A congestion signal → cap bitrate)", r.EONA}} {
		t.AddRow(row.name,
			fmt.Sprintf("%d", row.res.Sessions),
			Cell(row.res.MeanScore),
			Cell(row.res.MeanBufRatio),
			Cell(row.res.MeanBitrateBps/1e6),
			Cell(row.res.CDNSwitchesPerSession),
			Cell(row.res.EngagementMinutes))
	}
	t.Notes = append(t.Notes,
		"paper: players 'switch CDNs and the access ISP is congested, while a better solution is to switch down bitrate'")
	return t
}
