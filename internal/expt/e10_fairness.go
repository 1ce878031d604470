package expt

import "eona/internal/qoe"

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

// RunE10 computes both allocations analytically (the link is the only
// bottleneck, so fluid max-min has a closed form). The scenario is
// deterministic; the seed parameter keeps the experiment signatures
// uniform.
func RunE10(_ int64) E10Result {
	model := qoe.DefaultModel()
	model.MaxBitrate = e10Nominal

	score := func(perUser float64) float64 {
		starv := 1 - perUser/e10Nominal
		if starv < 0 {
			starv = 0
		}
		s := 100*model.BitrateUtility(perUser) - model.BufferingPenalty*100*0.5*starv
		if s < 0 {
			return 0
		}
		return s
	}

	finish := func(arm *E10Arm) {
		var sumRate, sumRate2, totalSessions, weightedScore float64
		for i := range arm.AppPs {
			a := &arm.AppPs[i]
			a.Score = score(a.DeliveredPerUserBps)
			sumRate += a.Sessions * a.DeliveredPerUserBps
			sumRate2 += a.Sessions * a.DeliveredPerUserBps * a.DeliveredPerUserBps
			totalSessions += a.Sessions
			weightedScore += a.Sessions * a.Score
		}
		// Jain over users: each AppP contributes Sessions users at its
		// per-user rate.
		arm.JainPerUser = sumRate * sumRate / (totalSessions * sumRate2)
		arm.MeanScore = weightedScore / totalSessions
	}

	// Baseline: max-min over the three aggregate flows (per-pipe
	// fairness). Progressive filling with demands.
	base := E10Arm{Name: "baseline (per-pipe max-min)", AppPs: e10AppPs()}
	{
		remaining := e10Capacity
		unfrozen := []int{0, 1, 2}
		alloc := make([]float64, 3)
		for len(unfrozen) > 0 {
			share := remaining / float64(len(unfrozen))
			progressed := false
			var still []int
			for _, i := range unfrozen {
				if base.AppPs[i].DemandBps <= share {
					alloc[i] = base.AppPs[i].DemandBps
					remaining -= alloc[i]
					progressed = true
				} else {
					still = append(still, i)
				}
			}
			if !progressed {
				for _, i := range still {
					alloc[i] = share
				}
				remaining = 0
				still = nil
			}
			unfrozen = still
		}
		for i := range base.AppPs {
			base.AppPs[i].DeliveredPerUserBps = alloc[i] / base.AppPs[i].Sessions
		}
	}
	finish(&base)

	// EONA: the ISP apportions capacity in proportion to the A2I session
	// counts (per-user fairness), capped by each AppP's own demand.
	eona := E10Arm{Name: "EONA (A2I session-proportional)", AppPs: e10AppPs()}
	{
		var totalSessions float64
		for _, a := range eona.AppPs {
			totalSessions += a.Sessions
		}
		perUser := e10Capacity / totalSessions
		if perUser > e10Nominal {
			perUser = e10Nominal
		}
		for i := range eona.AppPs {
			eona.AppPs[i].DeliveredPerUserBps = perUser
		}
	}
	finish(&eona)

	return E10Result{Baseline: base, EONA: eona}
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
