package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// setupRails starts flowsPerRail greedy flows on each rail of a rails(r, l)
// topology — the many-small-components regime.
func setupRails(r, l, flowsPerRail int) (*Network, []*Flow) {
	topo, links := rails(r, l, 90)
	n := NewNetwork(topo)
	var flows []*Flow
	n.Batch(func() {
		for i := range links {
			p := Path(links[i])
			for k := 0; k < flowsPerRail; k++ {
				flows = append(flows, n.StartFlow(p, math.Inf(1), ""))
			}
		}
	})
	return n, flows
}

// setupSkewed builds the skewed-component regime: one hub link carrying
// bigFlows greedy flows (one large component) plus r rails of 3 flows each
// (small satellite components). Churn targets the hub component, which
// holds ~70% of all flows.
func setupSkewed(bigFlows, r int) (*Network, []*Flow) {
	topo := NewTopology()
	hub := topo.AddLink("hubA", "hubB", 1000, time.Millisecond, "")
	var railPaths []Path
	for i := 0; i < r; i++ {
		from := NodeID(fmt.Sprintf("r%d-a", i))
		to := NodeID(fmt.Sprintf("r%d-b", i))
		railPaths = append(railPaths, Path{topo.AddLink(from, to, 90, time.Millisecond, "")})
	}
	n := NewNetwork(topo)
	var big []*Flow
	n.Batch(func() {
		for k := 0; k < bigFlows; k++ {
			big = append(big, n.StartFlow(Path{hub}, math.Inf(1), ""))
		}
		for _, p := range railPaths {
			for k := 0; k < 3; k++ {
				n.StartFlow(p, math.Inf(1), "")
			}
		}
	})
	return n, big
}

// benchChurn mutates demands of the given flows with a seeded rng —
// byte-identical workload across runs.
func benchChurn(b *testing.B, n *Network, flows []*Flow) {
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := flows[rng.Intn(len(flows))]
		n.SetDemand(f, float64(1+rng.Intn(200)))
	}
	b.ReportMetric(float64(n.FlowsRecomputed)/float64(b.N), "flows-recomputed/op")
}

func BenchmarkChurnRails(b *testing.B) {
	n, flows := setupRails(16, 3, 4)
	benchChurn(b, n, flows)
}

func BenchmarkChurnSkewed(b *testing.B) {
	n, flows := setupSkewed(140, 20)
	benchChurn(b, n, flows)
}
