package expt

import (
	"fmt"
	"time"

	"eona/internal/control"
	"eona/internal/core"
	"eona/internal/faults"
	"eona/internal/isp"
	"eona/internal/lookingglass"
	"eona/internal/netsim"
	"eona/internal/privacy"
	"eona/internal/qoe"
	"eona/internal/sim"
	"eona/internal/stability"
)

// This file builds the paper's Figure 5 scenario as a reusable runner. It
// backs experiments E2 (oscillation), E6 (staleness), E8 (interface width),
// E9 (timescales), and E11 (privacy blinding).
//
// Topology (capacities configurable):
//
//	clients --access--> border --B(100M)--------> cdnX
//	                    border --C(400M)--> ixp --> cdnX (400M)
//	                                        ixp --> cdnY (80M)   ← CDN Y is undersized
//
// The AppP routes an aggregate of sessions (nominal 3 Mbps each) to one CDN
// at a time; the ISP picks the egress per CDN. Traffic is modelled as one
// aggregate fluid flow, and per-epoch QoE is scored from the delivered
// per-session rate (bitrate utility minus a starvation/buffering penalty
// and a disruption penalty on switch epochs).

// Mode selects a party's control policy generation.
type Mode int

const (
	// Baseline is today's EONA-less control loop.
	Baseline Mode = iota
	// EONA is the interface-informed control loop.
	EONA
)

// String names the mode.
func (m Mode) String() string {
	if m == EONA {
		return "eona"
	}
	return "baseline"
}

// Fig5Config parameterizes the scenario.
type Fig5Config struct {
	Seed    int64
	Horizon time.Duration // default 2h
	// Epoch is the measurement period and the default control period.
	Epoch time.Duration // default 1min
	// TEPeriod and AppPPeriod override the parties' control periods
	// (E9); both default to Epoch.
	TEPeriod, AppPPeriod time.Duration
	// Demand is the AppP's offered load in bits/s over time; default
	// constant 150 Mbps.
	Demand func(time.Duration) float64
	// NominalBitrate is the per-session target rate. Default 3 Mbps.
	NominalBitrate float64
	// Capacities (defaults: access 1G, B 100M, C 400M, ixp→X 400M,
	// ixp→Y 80M).
	AccessBps, PeerBBps, PeerCBps, IXPToXBps, IXPToYBps float64

	AppPMode, InfPMode Mode
	// Staleness delays both EONA interfaces (E6).
	Staleness time.Duration
	// NoiseEpsilon adds Laplace noise to the A2I volume estimate (E11);
	// 0 disables.
	NoiseEpsilon float64
	// Dampening wraps both parties' actions in hysteresis + randomized
	// exponential backoff (E9). DampHysteresis and DampBackoff enable
	// the two mechanisms individually for ablation.
	Dampening                   bool
	DampHysteresis, DampBackoff bool
	// Failure injection: at FailPeerBAt (if positive), peering B's
	// capacity degrades to FailPeerBToBps (e.g., a partial outage).
	FailPeerBAt    time.Duration
	FailPeerBToBps float64
	// Faults is a deterministic chaos plan (E15): its link faults are
	// scheduled onto the topology (names: access, peering-B, peering-C,
	// ixp-cdnX, ixp-cdnY) and its partner faults gate the EONA interface
	// exchange — epochs inside an outage or error-burst window publish
	// nothing, so the parties keep deciding on their last-received hints.
	// Nil injects nothing.
	Faults *faults.Plan
	// HintHalfLife is the confidence half-life applied to interface data
	// age (see lookingglass.DecayConfidence); 0 means hints never lose
	// confidence.
	HintHalfLife time.Duration
	// ConfidenceFloor is passed to the EONA policies: below this hint
	// confidence they degrade to baseline rules. 0 keeps legacy
	// always-trust behaviour.
	ConfidenceFloor float64
}

func (c *Fig5Config) applyDefaults() {
	if c.Horizon == 0 {
		c.Horizon = 2 * time.Hour
	}
	if c.Epoch == 0 {
		c.Epoch = time.Minute
	}
	if c.TEPeriod == 0 {
		c.TEPeriod = c.Epoch
	}
	if c.AppPPeriod == 0 {
		c.AppPPeriod = c.Epoch
	}
	if c.Demand == nil {
		c.Demand = func(time.Duration) float64 { return 150e6 }
	}
	if c.NominalBitrate == 0 {
		c.NominalBitrate = 3e6
	}
	if c.AccessBps == 0 {
		c.AccessBps = 1e9
	}
	if c.PeerBBps == 0 {
		c.PeerBBps = 100e6
	}
	if c.PeerCBps == 0 {
		c.PeerCBps = 400e6
	}
	if c.IXPToXBps == 0 {
		c.IXPToXBps = 400e6
	}
	if c.IXPToYBps == 0 {
		c.IXPToYBps = 80e6
	}
}

// Fig5Result summarizes a run.
type Fig5Result struct {
	Config Fig5Config
	// MeanScore is the mean per-epoch QoE score after warm-up.
	MeanScore float64
	// ISPSwitches and AppPSwitches count knob changes over the run.
	ISPSwitches, AppPSwitches int
	// Oscillating reports a live limit cycle in either knob's history,
	// with its period in epochs.
	Oscillating bool
	CyclePeriod int
	// EgressHistory and CDNHistory are the decision traces.
	EgressHistory, CDNHistory []string
	// ScoreHistory is the per-epoch QoE score after warm-up.
	ScoreHistory []float64
	// Epochs is the number of scored epochs.
	Epochs int
}

// Sparkline renders the score history as a compact unicode strip (0–100
// mapped onto eight levels) for terminal timelines.
func (r Fig5Result) Sparkline() string {
	if len(r.ScoreHistory) == 0 {
		return ""
	}
	levels := []rune("▁▂▃▄▅▆▇█")
	out := make([]rune, len(r.ScoreHistory))
	for i, s := range r.ScoreHistory {
		idx := int(s / 100 * float64(len(levels)))
		if idx >= len(levels) {
			idx = len(levels) - 1
		}
		if idx < 0 {
			idx = 0
		}
		out[i] = levels[idx]
	}
	return string(out)
}

const (
	cdnXName = "cdnX"
	cdnYName = "cdnY"
)

// RunFig5 executes the scenario.
func RunFig5(cfg Fig5Config) Fig5Result {
	cfg.applyDefaults()
	eng := sim.NewEngine(cfg.Seed)

	topo := netsim.NewTopology()
	access := topo.AddLink("clients", "border", cfg.AccessBps, 2*time.Millisecond, "access")
	linkB := topo.AddLink("border", "cdnX", cfg.PeerBBps, time.Millisecond, "peering-B")
	linkC := topo.AddLink("border", "ixp", cfg.PeerCBps, 3*time.Millisecond, "peering-C")
	ixpX := topo.AddLink("ixp", "cdnX", cfg.IXPToXBps, time.Millisecond, "ixp-cdnX")
	ixpY := topo.AddLink("ixp", "cdnY", cfg.IXPToYBps, time.Millisecond, "ixp-cdnY")
	net := netsim.NewNetwork(topo)
	net.SetMaxRate(10e9) // aggregate flow: no per-NIC cap

	if err := cfg.Faults.Schedule(eng, net, map[string]faults.Target{
		"access":    {ID: access.ID, BaseBps: cfg.AccessBps},
		"peering-B": {ID: linkB.ID, BaseBps: cfg.PeerBBps},
		"peering-C": {ID: linkC.ID, BaseBps: cfg.PeerCBps},
		"ixp-cdnX":  {ID: ixpX.ID, BaseBps: cfg.IXPToXBps},
		"ixp-cdnY":  {ID: ixpY.ID, BaseBps: cfg.IXPToYBps},
	}); err != nil {
		panic(fmt.Sprintf("expt: fig5 fault plan: %v", err))
	}

	ispNet := isp.New(net, isp.Config{Name: "isp1", ClientNode: "clients", Border: "border", Access: access})
	ispNet.AddPeering("B", linkB, cdnXName)
	ispNet.AddPeering("C", linkC, cdnXName, cdnYName)

	model := qoe.DefaultModel()
	model.MaxBitrate = cfg.NominalBitrate

	// --- state ---
	currentCDN := cdnXName
	capBps := 0.0 // AppP bitrate cap (0 = uncapped)
	cdnScore := map[string]float64{cdnXName: 70, cdnYName: 70}
	var switchedThisEpoch bool
	var egressTrack, cdnTrack stability.Tracker
	var scores []float64

	i2aStore := core.NewDelayed[control.I2AView](cfg.Staleness)
	a2iStore := core.NewDelayed[control.A2IView](cfg.Staleness)
	volNoiser := privacy.NewNoiser(cfg.NoiseEpsilon, 3e6, cfg.Seed+7)

	// lastExchange is when the parties last completed an interface
	// exchange (−1 = never); partner faults freeze it, and hint
	// confidence decays from it on HintHalfLife.
	lastExchange := time.Duration(-1)
	hintConfidence := func(now time.Duration) float64 {
		if lastExchange < 0 {
			return 0
		}
		return lookingglass.DecayConfidence(now-lastExchange, cfg.HintHalfLife)
	}

	demandNow := func(now time.Duration) float64 {
		d := cfg.Demand(now)
		if d < cfg.NominalBitrate {
			d = cfg.NominalBitrate
		}
		return d
	}
	sessionsAt := func(now time.Duration) float64 {
		return demandNow(now) / cfg.NominalBitrate
	}
	flowDemand := func(now time.Duration) float64 {
		per := cfg.NominalBitrate
		if capBps > 0 && capBps < per {
			per = capBps
		}
		return sessionsAt(now) * per
	}

	flow, err := ispNet.Connect(currentCDN, netsim.NodeID(currentCDN), flowDemand(0), "appp")
	if err != nil {
		panic(fmt.Sprintf("expt: fig5 setup: %v", err))
	}
	egressTrack.Record(0, ispNet.EgressOf(cdnXName).ID)
	cdnTrack.Record(0, currentCDN)

	if cfg.FailPeerBAt > 0 {
		eng.ScheduleAt(cfg.FailPeerBAt, func(*sim.Engine) {
			net.SetLinkCapacity(linkB.ID, cfg.FailPeerBToBps)
		})
	}

	reachable := map[string][]string{cdnXName: {"B", "C"}, cdnYName: {"C"}}

	// epochScore computes the per-epoch QoE proxy.
	epochScore := func(now time.Duration) float64 {
		sessions := sessionsAt(now)
		perDelivered := flow.Rate / sessions
		perTarget := flow.Demand / sessions
		starvation := 0.0
		if perTarget > 0 && perDelivered < perTarget {
			starvation = 1 - perDelivered/perTarget
		}
		// Starved sessions stall for a fraction of wall time
		// proportional to the deficit (fluid approximation).
		bufRatio := 0.5 * starvation
		s := 100*model.BitrateUtility(perDelivered) - model.BufferingPenalty*100*bufRatio
		if switchedThisEpoch {
			s -= 10 // disruption: re-join, lowest-rung restart
		}
		if s < 0 {
			s = 0
		}
		if s > 100 {
			s = 100
		}
		return s
	}

	buildI2A := func() control.I2AView {
		reports := ispNet.PeeringReports()
		var infos []core.PeeringInfo
		for _, r := range reports {
			p := ispNet.Peering(r.PeeringID)
			for _, cdnName := range []string{cdnXName, cdnYName} {
				if !p.Reaches(cdnName) {
					continue
				}
				infos = append(infos, core.PeeringInfo{
					PeeringID:   r.PeeringID,
					CDN:         cdnName,
					Congestion:  r.Congestion,
					HeadroomBps: r.HeadroomBps,
					CapacityBps: r.CapacityBps,
					Current:     ispNet.EgressOf(cdnName).ID == r.PeeringID,
				})
			}
		}
		atts := map[string]core.Attribution{}
		accessRep := ispNet.AccessReport()
		for _, cdnName := range []string{cdnXName, cdnYName} {
			att := core.Attribution{CDN: cdnName, Segment: core.SegmentNone}
			eg := ispNet.EgressOf(cdnName)
			egUtil := 0.0
			for _, r := range reports {
				if r.PeeringID == eg.ID {
					egUtil = r.Utilization
					att.Level = r.Congestion
				}
			}
			switch {
			case accessRep.Congestion >= netsim.CongestionHigh:
				att.Segment = core.SegmentAccess
				flows := net.FlowsOn(access.ID)
				if flows > 0 {
					att.SuggestedCapBps = 0.95 * accessRep.CapacityBps / sessionsAt(eng.Now())
				}
				att.Level = accessRep.Congestion
			case egUtil >= 0.9:
				att.Segment = core.SegmentPeering
			}
			atts[cdnName] = att
		}
		return control.I2AView{Peering: infos, Attribution: atts}
	}

	buildA2I := func(now time.Duration) control.A2IView {
		vol := demandNow(now)
		if cfg.NoiseEpsilon > 0 {
			if v := volNoiser.Noise(vol); v > 0 {
				vol = v
			} else {
				vol = 0
			}
		}
		return control.A2IView{Traffic: []core.TrafficEstimate{{
			AppP: "vod", CDN: currentCDN, VolumeBps: vol, Sessions: sessionsAt(now),
		}}}
	}

	// --- policies ---
	useHyst := cfg.Dampening || cfg.DampHysteresis
	useBackoff := cfg.Dampening || cfg.DampBackoff

	var appPolicy control.AppPPolicy
	var infPolicy control.InfPPolicy
	if cfg.AppPMode == EONA {
		e := &control.EONAAppP{Threshold: 60, CapHeadroom: 0.95, ConfidenceFloor: cfg.ConfidenceFloor}
		if useHyst {
			e.Hysteresis = &stability.Hysteresis{Margin: 0.2}
		}
		appPolicy = e
	} else {
		appPolicy = &control.BaselineAppP{Threshold: 60}
	}
	if cfg.InfPMode == EONA {
		infPolicy = &control.EONAInfP{Margin: 0.1, HighWater: 0.9, ConfidenceFloor: cfg.ConfidenceFloor}
	} else {
		infPolicy = &control.BaselineInfP{HighWater: 0.9, LowWater: 0.5}
	}
	var ispBackoff, appBackoff *stability.Backoff
	if useBackoff {
		ispBackoff = stability.NewBackoff(cfg.TEPeriod, 30*cfg.TEPeriod, 2, 0.2, cfg.Seed+11)
		appBackoff = stability.NewBackoff(cfg.AppPPeriod, 30*cfg.AppPPeriod, 2, 0.2, cfg.Seed+13)
	}
	// Scenario-level hysteresis for the baseline AppP (the policy itself
	// has no dampening hook): a CDN switch must promise a clearly better
	// score than the incumbent's.
	const baselineHystMargin = 5.0

	// --- measurement process (publishes interface data) ---
	warmup := 2
	epoch := 0
	eng.Every(cfg.Epoch, func(e *sim.Engine) bool {
		now := e.Now()
		s := epochScore(now)
		cdnScore[currentCDN] = s
		epoch++
		if epoch > warmup {
			scores = append(scores, s)
		}
		switchedThisEpoch = false
		// Partner faults gate the exchange: during an outage or error
		// burst nothing is published, so the stores (and hence the
		// policies) keep serving the last completed exchange.
		if cfg.Faults.PartnerUp(now) && !cfg.Faults.PartnerErrored(now) {
			i2aStore.Set(now, buildI2A())
			a2iStore.Set(now, buildA2I(now))
			lastExchange = now
		}
		// Demand may be time-varying; keep the flow's demand current.
		net.SetDemand(flow, flowDemand(now))
		return true
	})

	// --- InfP control loop ---
	eng.Every(cfg.TEPeriod, func(e *sim.Engine) bool {
		now := e.Now()
		obs := control.InfPObs{
			Now:      now,
			Peerings: ispNet.PeeringReports(),
			Egress: map[string]string{
				cdnXName: ispNet.EgressOf(cdnXName).ID,
				cdnYName: ispNet.EgressOf(cdnYName).ID,
			},
			Reach: reachable,
		}
		if cfg.InfPMode == EONA {
			if v, ok := a2iStore.Get(now); ok {
				obs.A2I = &v
				obs.A2IConfidence = hintConfidence(now)
			}
		}
		dec := infPolicy.Decide(obs)
		for _, cdnName := range []string{cdnXName, cdnYName} {
			want, ok := dec.Egress[cdnName]
			if !ok || want == ispNet.EgressOf(cdnName).ID {
				continue
			}
			if ispBackoff != nil {
				if !ispBackoff.Allow(now) {
					continue
				}
				ispBackoff.OnAction(now)
			}
			if err := ispNet.SetEgress(cdnName, want); err != nil {
				panic(fmt.Sprintf("expt: fig5 TE: %v", err))
			}
		}
		egressTrack.Record(now, ispNet.EgressOf(cdnXName).ID)
		return true
	})

	// --- AppP control loop ---
	eng.Every(cfg.AppPPeriod, func(e *sim.Engine) bool {
		now := e.Now()
		obs := control.AppPObs{
			Now:       now,
			Current:   currentCDN,
			Score:     cdnScore[currentCDN],
			DemandBps: demandNow(now),
			CDNs: []control.CDNStat{
				{Name: cdnXName, Score: cdnScore[cdnXName], ServingCapacityBps: cfg.IXPToXBps},
				{Name: cdnYName, Score: cdnScore[cdnYName], ServingCapacityBps: cfg.IXPToYBps},
			},
		}
		if cfg.AppPMode == EONA {
			if v, ok := i2aStore.Get(now); ok {
				obs.I2A = &v
				obs.I2AConfidence = hintConfidence(now)
			}
		}
		dec := appPolicy.Decide(obs)
		capBps = dec.BitrateCapBps
		if dec.CDN != currentCDN {
			allowed := true
			if useHyst && cfg.AppPMode == Baseline &&
				cdnScore[dec.CDN] <= cdnScore[currentCDN]+baselineHystMargin {
				allowed = false
			}
			if allowed && appBackoff != nil {
				if !appBackoff.Allow(now) {
					allowed = false
				} else {
					appBackoff.OnAction(now)
				}
			}
			if allowed {
				currentCDN = dec.CDN
				switchedThisEpoch = true
				if err := ispNet.Retarget(flow, currentCDN, netsim.NodeID(currentCDN)); err != nil {
					panic(fmt.Sprintf("expt: fig5 retarget: %v", err))
				}
			}
		}
		net.SetDemand(flow, flowDemand(now))
		cdnTrack.Record(now, currentCDN)
		return true
	})

	eng.Run(cfg.Horizon)

	res := Fig5Result{
		Config:        cfg,
		ISPSwitches:   egressTrack.Switches(),
		AppPSwitches:  cdnTrack.Switches(),
		EgressHistory: egressTrack.History(),
		CDNHistory:    cdnTrack.History(),
		ScoreHistory:  scores,
		Epochs:        len(scores),
	}
	for _, s := range scores {
		res.MeanScore += s
	}
	if len(scores) > 0 {
		res.MeanScore /= float64(len(scores))
	}
	if p, ok := stability.DetectCycle(res.EgressHistory); ok {
		res.Oscillating, res.CyclePeriod = true, p
	} else if p, ok := stability.DetectCycle(res.CDNHistory); ok {
		res.Oscillating, res.CyclePeriod = true, p
	}
	return res
}

// Fig5Oracle computes the global-controller upper bound for the scenario:
// it enumerates every static joint configuration (CDN choice × egress for
// CDN X × capped/uncapped bitrate) and returns the best steady-state epoch
// score. This is recipe step 2 — the hypothetical controller that uses all
// data and all knobs.
func Fig5Oracle(cfg Fig5Config) float64 {
	cfg.applyDefaults()
	model := qoe.DefaultModel()
	model.MaxBitrate = cfg.NominalBitrate
	demand := cfg.Demand(0)
	sessions := demand / cfg.NominalBitrate

	best := 0.0
	for _, choice := range []struct {
		cdn    string
		egress string
		path   float64 // bottleneck capacity
	}{
		{cdnXName, "B", min2(cfg.AccessBps, cfg.PeerBBps)},
		{cdnXName, "C", min2(cfg.AccessBps, min2(cfg.PeerCBps, cfg.IXPToXBps))},
		{cdnYName, "C", min2(cfg.AccessBps, min2(cfg.PeerCBps, cfg.IXPToYBps))},
	} {
		for _, capped := range []bool{false, true} {
			perTarget := cfg.NominalBitrate
			if capped {
				// The oracle sets the cap so aggregate demand
				// exactly fits the path.
				fit := choice.path / sessions
				if fit < perTarget {
					perTarget = fit
				}
			}
			agg := perTarget * sessions
			rate := agg
			if rate > choice.path {
				rate = choice.path
			}
			perDelivered := rate / sessions
			starvation := 0.0
			if perTarget > 0 && perDelivered < perTarget {
				starvation = 1 - perDelivered/perTarget
			}
			s := 100*model.BitrateUtility(perDelivered) - model.BufferingPenalty*100*0.5*starvation
			if s < 0 {
				s = 0
			}
			if s > 100 {
				s = 100
			}
			if s > best {
				best = s
			}
		}
	}
	return best
}

func min2(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
