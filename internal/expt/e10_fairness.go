package expt

import (
	"time"

	"eona/internal/netsim"
	"eona/internal/qoe"
)

// E10 — §5 "fairness and trust": one InfP serving multiple AppPs.
//
// Paper claim: "There are other natural concerns, such as fairness when an
// InfP serves multiple AppPs."
//
// Three AppPs of very different sizes share one 400 Mbps peering. Without
// A2I the ISP's link just runs max-min fairness over the AppPs' aggregate
// flows — which is fair to *pipes*, not to *users*: the small AppP's users
// get their full bitrate while the big AppP's users starve. With A2I
// per-AppP volume estimates (demand = sessions × bitrate), the ISP can
// apportion the peering in proportion to sessions, equalizing per-user
// experience across AppPs. We report Jain's fairness index over per-user
// delivered rates and the per-AppP scores.

// E10AppP describes one application provider's load.
type E10AppP struct {
	Name     string
	Sessions float64
	// DemandBps = Sessions × nominal bitrate.
	DemandBps float64
	// DeliveredPerUserBps and Score are filled per arm.
	DeliveredPerUserBps float64
	Score               float64
}

// E10Arm is one allocation discipline's outcome.
type E10Arm struct {
	Name  string
	AppPs []E10AppP
	// JainPerUser is Jain's index over per-user delivered rates.
	JainPerUser float64
	// MeanScore is the session-weighted mean score.
	MeanScore float64
}

// E10Result holds both arms.
type E10Result struct {
	Baseline, EONA E10Arm
}

const (
	e10Nominal  = 3e6
	e10Capacity = 400e6
)

func e10AppPs() []E10AppP {
	mk := func(name string, sessions float64) E10AppP {
		return E10AppP{Name: name, Sessions: sessions, DemandBps: sessions * e10Nominal}
	}
	// Big, medium, small — total demand 504 Mbps over a 400 Mbps pipe.
	return []E10AppP{mk("vod-big", 84), mk("vod-mid", 50), mk("live-small", 34)}
}

// RunE10 runs both arms on netsim's weighted max-min allocator: the three
// AppPs' aggregate flows share one peering link, with unit weights in the
// baseline (per-pipe fairness) and A2I session counts as weights under
// EONA (per-user fairness). Each flow's demand caps it at the nominal
// per-user rate. The scenario is deterministic; the seed parameter keeps
// the experiment signatures uniform.
func RunE10(_ int64) E10Result {
	return E10Result{
		Baseline: e10Arm("baseline (per-pipe max-min)", func(E10AppP) float64 { return 1 }),
		EONA:     e10Arm("EONA (A2I session-proportional)", func(a E10AppP) float64 { return a.Sessions }),
	}
}

// e10Arm allocates the peering among the AppPs' flows with the given
// max-min weights and scores the per-user rates.
func e10Arm(name string, weight func(E10AppP) float64) E10Arm {
	arm := E10Arm{Name: name, AppPs: e10AppPs()}
	topo := netsim.NewTopology()
	peering := netsim.Path{topo.AddLink("isp", "appps", e10Capacity, time.Millisecond, "peering")}
	net := netsim.NewNetwork(topo)
	flows := make([]*netsim.Flow, len(arm.AppPs))
	net.Batch(func() {
		for i, a := range arm.AppPs {
			flows[i] = net.StartFlow(peering, a.DemandBps, a.Name)
			net.SetWeight(flows[i], weight(a))
		}
	})

	model := qoe.DefaultModel()
	model.MaxBitrate = e10Nominal
	var sumRate, sumRate2, totalSessions, weightedScore float64
	for i := range arm.AppPs {
		a := &arm.AppPs[i]
		a.DeliveredPerUserBps = flows[i].Rate / a.Sessions
		a.Score = model.FluidScore(a.DeliveredPerUserBps, e10Nominal)
		sumRate += a.Sessions * a.DeliveredPerUserBps
		sumRate2 += a.Sessions * a.DeliveredPerUserBps * a.DeliveredPerUserBps
		totalSessions += a.Sessions
		weightedScore += a.Sessions * a.Score
	}
	// Jain over users: each AppP contributes Sessions users at its
	// per-user rate.
	arm.JainPerUser = sumRate * sumRate / (totalSessions * sumRate2)
	arm.MeanScore = weightedScore / totalSessions
	return arm
}

// Table renders both arms.
func (r E10Result) Table() *Table {
	t := &Table{
		Title:   "E10 (§5): fairness across AppPs sharing one peering (per-user rates, Mbps)",
		Columns: []string{"arm", "vod-big", "vod-mid", "live-small", "Jain (per-user)", "mean score"},
	}
	for _, arm := range []E10Arm{r.Baseline, r.EONA} {
		t.AddRow(arm.Name,
			Cell(arm.AppPs[0].DeliveredPerUserBps/1e6),
			Cell(arm.AppPs[1].DeliveredPerUserBps/1e6),
			Cell(arm.AppPs[2].DeliveredPerUserBps/1e6),
			Cell(arm.JainPerUser),
			Cell(arm.MeanScore))
	}
	t.Notes = append(t.Notes,
		"per-pipe max-min favors the small AppP's users; A2I session counts let the InfP equalize per-user experience")
	return t
}
