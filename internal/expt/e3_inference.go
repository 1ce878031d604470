package expt

import (
	"math"
	"math/rand"
	"time"

	"eona/internal/agg"
	"eona/internal/infer"
	"eona/internal/netsim"
	"eona/internal/player"
	"eona/internal/qoe"
	"eona/internal/sim"
)

// E3 — Figure 4: inferring experience from network metrics vs measuring it.
//
// Paper claim: ISPs "are trying to infer application-level experience using
// network-level measurements ... While such efforts are useful, they are
// stop-gap solutions. InfPs can be empowered if they have direct
// application measurements to avoid inference, which can be inaccurate and
// require expensive deep inspection capabilities."
//
// We build a corpus of sessions under randomized network conditions
// (bottleneck capacity, cross traffic, propagation delay), each run through
// the real player model. The InfP-visible features are purely network-level
// — RTT, loss, utilization, flow count, TTFB — and two standard regressors
// (OLS, k-NN) are trained to predict the session QoE score from them. The
// A2I path simply reports the score, with zero error by construction.

// E3Result reports inference error for each method.
type E3Result struct {
	LinReg infer.Eval
	KNN    infer.Eval
	// ScoreStdDev contextualizes the MAE (error vs natural spread).
	ScoreStdDev float64
}

// e3Sample runs one randomized session and returns (features, score).
func e3Sample(rng *rand.Rand) ([]float64, float64) {
	topo := netsim.NewTopology()
	capacity := 2e6 + rng.Float64()*18e6
	delay := time.Duration(5+rng.Intn(75)) * time.Millisecond
	bottleneck := topo.AddLink("client", "edge", capacity, delay, "bottleneck")
	tail := topo.AddLink("edge", "server", 1e9, 5*time.Millisecond, "tail")
	net := netsim.NewNetwork(topo)

	// Cross traffic the session contends with — one batched reallocation
	// for the whole background mix.
	nCross := rng.Intn(8)
	net.Batch(func() {
		for i := 0; i < nCross; i++ {
			net.StartFlow(netsim.Path{bottleneck}, 0.5e6+rng.Float64()*6e6, "cross")
		}
	})

	eng := sim.NewEngine(rng.Int63())
	path := netsim.Path{bottleneck, tail}
	flow := net.StartFlow(path, 0, "session")
	conn := &player.FlowConn{Net: net, Flow: flow}
	p := player.New(eng, player.Config{
		Ladder: []float64{300e3, 750e3, 1.5e6, 3e6, 4.5e6},
		ABR:    player.RateBased{Safety: 0.85},
	}, 90*time.Second)
	p.Start(conn, 200*time.Millisecond)

	// Mid-session network-level snapshot — what a passive ISP monitor
	// sees (it cannot see buffers or played bitrate).
	var rttMs, lossPct, util, flows float64
	eng.Schedule(45*time.Second, func(*sim.Engine) {
		rttMs = float64(net.PathRTT(path)) / float64(time.Millisecond)
		lossPct = 100 * net.PathLoss(path)
		util = net.Utilization(bottleneck.ID)
		flows = float64(net.FlowsOn(bottleneck.ID))
	})
	eng.Run(3 * time.Minute)

	m := p.Metrics()
	model := qoe.DefaultModel()
	model.MaxBitrate = 4.5e6
	ttfbMs := float64(2*delay)/float64(time.Millisecond) + 20
	features := []float64{rttMs, lossPct, util, flows, ttfbMs}
	return features, model.Score(m)
}

// e3Samples is the size of E3's session corpus.
const e3Samples = 240

// RunE3 builds the corpus and evaluates both regressors.
func RunE3(seed int64) E3Result {
	rng := rand.New(rand.NewSource(seed))
	var d infer.Dataset
	var score agg.Welford
	for i := 0; i < e3Samples; i++ {
		x, y := e3Sample(rng)
		d.Add(x, y)
		score.Add(y)
	}
	train, test := d.Split(5)
	var res E3Result
	if lin, err := infer.FitLinReg(train); err == nil {
		res.LinReg = infer.Evaluate(lin, test)
	}
	if knn, err := infer.FitKNN(train, 7); err == nil {
		res.KNN = infer.Evaluate(knn, test)
	}
	res.ScoreStdDev = math.Sqrt(score.Variance())
	return res
}

// Table renders the comparison against direct measurement.
func (r E3Result) Table() *Table {
	t := &Table{
		Title:   "E3 (Figure 4): inferring QoE from network metrics vs direct A2I measurement",
		Columns: []string{"method", "MAE (score pts)", "RMSE", "rank corr (Spearman)"},
	}
	t.AddRow("OLS on network features", Cell(r.LinReg.MAE), Cell(r.LinReg.RMSE), Cell(r.LinReg.Spearman))
	t.AddRow("7-NN on network features", Cell(r.KNN.MAE), Cell(r.KNN.RMSE), Cell(r.KNN.Spearman))
	t.AddRow("direct A2I measurement", "0", "0", "1.000")
	t.Notes = append(t.Notes,
		Cell(r.ScoreStdDev)+" = natural score std-dev across conditions (context for the MAE)",
		"paper: inference 'can be inaccurate and require expensive deep inspection capabilities'")
	return t
}
