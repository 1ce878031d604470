package expt

import (
	"fmt"
	"math/rand"
	"time"

	"eona/internal/feature"
	"eona/internal/netsim"
	"eona/internal/player"
	"eona/internal/qoe"
	"eona/internal/sim"
)

// E12 — §4 "identifying useful knobs and data".
//
// Paper claim: "it may not be trivial to identify which knobs or data have
// significant impact on experience as there might be several confounding
// factors ... we might need some type of feature selection techniques
// (e.g., information gain) to identify the relevant attributes."
//
// We generate a labelled session corpus where by construction two
// attributes drive experience — the chosen CDN (one is degraded) and the
// client ISP (one has a congested access) — while two others (device type,
// time of day) are irrelevant. Information gain over the discretized QoE
// label must rank the causal attributes above the noise attributes,
// demonstrating the §4 technique an AppP would use to decide what belongs
// in a narrow interface.

// E12Result carries the ranking.
type E12Result struct {
	Ranking []feature.Ranked
}

// RunE12 builds the corpus and ranks the attributes.
func RunE12(seed int64) E12Result {
	rng := rand.New(rand.NewSource(seed))
	const n = 200

	cdns := []string{"cdnX", "cdnY"}   // cdnY's servers are overloaded
	isps := []string{"isp-a", "isp-b"} // isp-b's access is congested
	devices := []string{"phone", "tv", "desktop"}
	dayparts := []string{"morning", "evening"}

	attrs := map[string][]string{"cdn": nil, "isp": nil, "device": nil, "daypart": nil}
	var scores []float64

	for i := 0; i < n; i++ {
		cdnName := cdns[rng.Intn(2)]
		ispName := isps[rng.Intn(2)]
		device := devices[rng.Intn(3)]
		daypart := dayparts[rng.Intn(2)]

		// Session capacity is governed by the causal attributes.
		serverCap := 8e6
		if cdnName == "cdnY" {
			serverCap = 0.9e6 // degraded CDN
		}
		accessCap := 10e6
		if ispName == "isp-b" {
			accessCap = 1.4e6 // congested access
		}

		topo := netsim.NewTopology()
		access := topo.AddLink("client", "border", accessCap, 10*time.Millisecond, "")
		serve := topo.AddLink("border", "server", serverCap, 10*time.Millisecond, "")
		net := netsim.NewNetwork(topo)
		eng := sim.NewEngine(rng.Int63())
		flow := net.StartFlow(netsim.Path{access, serve}, 0, "")
		p := player.New(eng, player.Config{
			Ladder: []float64{300e3, 750e3, 1.5e6, 3e6},
			ABR:    player.RateBased{Safety: 0.85},
		}, time.Minute)
		p.Start(&player.FlowConn{Net: net, Flow: flow}, 200*time.Millisecond)
		eng.Run(2 * time.Minute)

		model := qoe.DefaultModel()
		model.MaxBitrate = 3e6
		attrs["cdn"] = append(attrs["cdn"], cdnName)
		attrs["isp"] = append(attrs["isp"], ispName)
		attrs["device"] = append(attrs["device"], device)
		attrs["daypart"] = append(attrs["daypart"], daypart)
		scores = append(scores, model.Score(p.Metrics()))
	}

	labels := feature.Discretize(scores, 3) // bad / ok / good
	return E12Result{Ranking: feature.Rank(attrs, labels)}
}

// Table renders the ranking.
func (r E12Result) Table() *Table {
	t := &Table{
		Title:   "E12 (§4): information gain ranks the attributes that matter for experience",
		Columns: []string{"rank", "attribute", "information gain (bits)"},
	}
	for i, rk := range r.Ranking {
		t.AddRow(fmt.Sprintf("%d", i+1), rk.Attribute, Cell(rk.Gain))
	}
	t.Notes = append(t.Notes,
		"ground truth: 'cdn' and 'isp' drive capacity in this corpus; 'device' and 'daypart' are noise",
		"paper: 'we might need some type of feature selection techniques (e.g., information gain)'")
	return t
}
