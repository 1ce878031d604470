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
	b.ReportMetric(float64(n.stats.FlowsRecomputed)/float64(b.N), "flows-recomputed/op")
}

func BenchmarkChurnRails(b *testing.B) {
	n, flows := setupRails(16, 3, 4)
	benchChurn(b, n, flows)
}

func BenchmarkChurnSkewed(b *testing.B) {
	n, flows := setupSkewed(140, 20)
	benchChurn(b, n, flows)
}

// BenchmarkPublishChurn pins "publish cost ∝ the change": one flow departure
// and one arrival per op through an un-journaled SharedNetwork — two commits,
// two published snapshots — at two flow counts with the same 125-flow
// components. Each publish rebuilds one component's chunk, so ns/op and B/op
// must not follow the flow count (what is left that does is the per-link
// FlowsOn/ActiveFlowsOn copy).
func BenchmarkPublishChurn(b *testing.B) {
	for _, flows := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("flows=%d", flows), func(b *testing.B) {
			n, paths, live := churnRegions(flows/125, flows)
			s := NewShared(n, SharedConfig{})
			defer s.Close()
			rng := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := rng.Intn(len(live))
				s.StopFlow(live[k])
				live[k] = s.StartFlow(paths[rng.Intn(len(paths))], float64(1+rng.Intn(16))*0.5e6, "churn")
			}
		})
	}
}

// BenchmarkRepathBatch is the ID-sorted member list's worst case: one Batch
// of 5 000 SetPath calls inside a single 10 000-flow component. The movers'
// IDs interleave with the flows that stay put, so every SetPath is a mid-list
// removal (binary search and a shift) followed by a singleton merged back
// into the middle, and the commit fills the whole component once. With
// one-hop paths the split check is O(1) and the shifts are the whole cost of
// the ops; with two hops every removal also scans a link's flows for the
// smallest ID, as it did when membership was a map.
func BenchmarkRepathBatch(b *testing.B) {
	for hops := 1; hops <= 2; hops++ {
		b.Run(fmt.Sprintf("hops=%d", hops), func(b *testing.B) {
			topo, p := line(1e9, 1e9, 1e9, 1e9)
			n := NewNetwork(topo)
			sides := [2]Path{p[:hops], p[4-hops:]}
			var movers []*Flow
			n.Batch(func() {
				n.StartFlow(p, 1e3, "") // spans every link: one component throughout
				for i := 0; i < 5000; i++ {
					movers = append(movers, n.StartFlow(sides[0], 1e3, ""))
					n.StartFlow(sides[i%2], 1e3, "")
				}
			})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				to := sides[(i+1)%2]
				n.Batch(func() {
					for _, f := range movers {
						n.SetPath(f, to)
					}
				})
			}
		})
	}
}
