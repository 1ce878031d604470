package netsim

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-6*(1+math.Abs(b)) }

// line builds a linear topology a->b->c... with the given per-link capacities.
func line(caps ...float64) (*Topology, Path) {
	t := NewTopology()
	var p Path
	for i, c := range caps {
		from := NodeID(rune('a' + i))
		to := NodeID(rune('a' + i + 1))
		p = append(p, t.AddLink(from, to, c, time.Millisecond, ""))
	}
	return t, p
}

func TestSingleFlowGetsBottleneck(t *testing.T) {
	topo, p := line(100, 10, 50)
	n := NewNetwork(topo)
	f := n.StartFlow(p, math.Inf(1), "")
	if !almostEq(f.Rate, 10) {
		t.Errorf("rate = %v, want 10", f.Rate)
	}
}

func TestDemandCap(t *testing.T) {
	topo, p := line(100)
	n := NewNetwork(topo)
	f := n.StartFlow(p, 30, "")
	if !almostEq(f.Rate, 30) {
		t.Errorf("rate = %v, want demand 30", f.Rate)
	}
}

func TestEqualSharing(t *testing.T) {
	topo, p := line(90)
	n := NewNetwork(topo)
	f1 := n.StartFlow(p, math.Inf(1), "")
	f2 := n.StartFlow(p, math.Inf(1), "")
	f3 := n.StartFlow(p, math.Inf(1), "")
	for _, f := range []*Flow{f1, f2, f3} {
		if !almostEq(f.Rate, 30) {
			t.Errorf("flow %d rate = %v, want 30", f.ID, f.Rate)
		}
	}
}

func TestMaxMinWithSmallDemand(t *testing.T) {
	// One flow is demand-limited to 10; the other two split the rest.
	topo, p := line(100)
	n := NewNetwork(topo)
	small := n.StartFlow(p, 10, "")
	big1 := n.StartFlow(p, math.Inf(1), "")
	big2 := n.StartFlow(p, math.Inf(1), "")
	if !almostEq(small.Rate, 10) {
		t.Errorf("small rate = %v, want 10", small.Rate)
	}
	if !almostEq(big1.Rate, 45) || !almostEq(big2.Rate, 45) {
		t.Errorf("big rates = %v, %v, want 45 each", big1.Rate, big2.Rate)
	}
}

func TestTwoBottlenecks(t *testing.T) {
	// Classic max-min example: flow A crosses link1(cap 10) shared with B;
	// B also crosses link2 (cap 100) shared with C.
	topo := NewTopology()
	l1 := topo.AddLink("a", "b", 10, time.Millisecond, "l1")
	l2 := topo.AddLink("b", "c", 100, time.Millisecond, "l2")
	n := NewNetwork(topo)
	fA := n.StartFlow(Path{l1}, math.Inf(1), "")
	fB := n.StartFlow(Path{l1, l2}, math.Inf(1), "")
	fC := n.StartFlow(Path{l2}, math.Inf(1), "")
	if !almostEq(fA.Rate, 5) || !almostEq(fB.Rate, 5) {
		t.Errorf("l1 flows = %v,%v want 5,5", fA.Rate, fB.Rate)
	}
	if !almostEq(fC.Rate, 95) {
		t.Errorf("fC = %v, want 95", fC.Rate)
	}
}

func TestStopFlowReleasesCapacity(t *testing.T) {
	topo, p := line(100)
	n := NewNetwork(topo)
	f1 := n.StartFlow(p, math.Inf(1), "")
	f2 := n.StartFlow(p, math.Inf(1), "")
	if !almostEq(f1.Rate, 50) {
		t.Fatalf("pre rate = %v", f1.Rate)
	}
	n.StopFlow(f2)
	if !almostEq(f1.Rate, 100) {
		t.Errorf("post rate = %v, want 100", f1.Rate)
	}
	if f2.Rate != 0 {
		t.Errorf("stopped flow rate = %v, want 0", f2.Rate)
	}
	n.StopFlow(f2) // no-op
	n.StopFlow(nil)
}

func TestSetDemandReallocates(t *testing.T) {
	topo, p := line(100)
	n := NewNetwork(topo)
	f1 := n.StartFlow(p, math.Inf(1), "")
	f2 := n.StartFlow(p, math.Inf(1), "")
	n.SetDemand(f1, 20)
	if !almostEq(f1.Rate, 20) || !almostEq(f2.Rate, 80) {
		t.Errorf("rates = %v,%v want 20,80", f1.Rate, f2.Rate)
	}
}

func TestSetPathReroutes(t *testing.T) {
	topo := NewTopology()
	l1 := topo.AddLink("a", "b", 10, time.Millisecond, "")
	l2 := topo.AddLink("a", "b", 100, time.Millisecond, "")
	n := NewNetwork(topo)
	f := n.StartFlow(Path{l1}, math.Inf(1), "")
	if !almostEq(f.Rate, 10) {
		t.Fatalf("rate = %v", f.Rate)
	}
	n.SetPath(f, Path{l2})
	if !almostEq(f.Rate, 100) {
		t.Errorf("rerouted rate = %v, want 100", f.Rate)
	}
	if !almostEq(n.LinkRate(l1.ID), 0) {
		t.Errorf("old link still carries %v", n.LinkRate(l1.ID))
	}
}

func TestEmptyPathCappedAtMaxRate(t *testing.T) {
	topo := NewTopology()
	topo.AddNode("a")
	n := NewNetwork(topo)
	f := n.StartFlow(Path{}, math.Inf(1), "")
	if !almostEq(f.Rate, DefaultMaxRate) {
		t.Errorf("rate = %v, want MaxRate", f.Rate)
	}
}

func TestMaxRateCapsAllFlows(t *testing.T) {
	topo, p := line(1e12)
	n := NewNetwork(topo)
	n.SetMaxRate(5e6)
	f := n.StartFlow(p, math.Inf(1), "")
	if !almostEq(f.Rate, 5e6) {
		t.Errorf("rate = %v, want 5e6", f.Rate)
	}
}

func TestUtilizationAndHeadroom(t *testing.T) {
	topo, p := line(100)
	n := NewNetwork(topo)
	n.StartFlow(p, 60, "")
	id := p[0].ID
	if !almostEq(n.Utilization(id), 0.6) {
		t.Errorf("util = %v, want 0.6", n.Utilization(id))
	}
	if !almostEq(n.Headroom(id), 40) {
		t.Errorf("headroom = %v, want 40", n.Headroom(id))
	}
}

func TestCongestionLevels(t *testing.T) {
	topo, p := line(100)
	n := NewNetwork(topo)
	f := n.StartFlow(p, 10, "")
	id := p[0].ID
	cases := []struct {
		demand float64
		want   CongestionLevel
	}{{10, CongestionNone}, {75, CongestionModerate}, {92, CongestionHigh}, {99, CongestionSevere}}
	for _, c := range cases {
		n.SetDemand(f, c.demand)
		if got := n.Congestion(id); got != c.want {
			t.Errorf("demand %v: congestion = %v, want %v", c.demand, got, c.want)
		}
	}
}

func TestLossRisesWithUtilization(t *testing.T) {
	topo, p := line(100)
	n := NewNetwork(topo)
	f := n.StartFlow(p, 50, "")
	if n.PathLoss(p) != 0 {
		t.Errorf("loss at 50%% util = %v, want 0", n.PathLoss(p))
	}
	n.SetDemand(f, 100)
	if n.PathLoss(p) <= 0 {
		t.Error("loss at 100% util should be positive")
	}
}

func TestQueueDelayGrowsWithLoad(t *testing.T) {
	topo, p := line(100)
	n := NewNetwork(topo)
	f := n.StartFlow(p, 10, "")
	low := n.PathRTT(p)
	n.SetDemand(f, 99)
	high := n.PathRTT(p)
	if high <= low {
		t.Errorf("RTT did not grow with load: %v -> %v", low, high)
	}
	if min := 2 * p.PropDelay(); low < min {
		t.Errorf("RTT %v below propagation floor %v", low, min)
	}
}

func TestFlowsOn(t *testing.T) {
	topo, p := line(100)
	n := NewNetwork(topo)
	n.StartFlow(p, 1, "")
	n.StartFlow(p, 1, "")
	if got := n.FlowsOn(p[0].ID); got != 2 {
		t.Errorf("FlowsOn = %d, want 2", got)
	}
}

// Property-based check of the allocation against the definition of weighted
// max-min fairness, over random demands, weights and lifecycles on a
// multi-component topology (three disjoint rings):
//  1. no link is over capacity,
//  2. no flow exceeds its demand or MaxRate,
//  3. every flow not pinned at min(Demand, MaxRate) crosses a saturated link
//     on which its rate per unit weight is maximal among that link's flows —
//     so no flow's share can grow except at the expense of one whose
//     weighted share is already no larger.
func TestQuickMaxMinInvariants(t *testing.T) {
	type flowSpec struct {
		A, B   uint8
		Demand uint16
		Weight uint8
	}
	f := func(specs []flowSpec) bool {
		topo := NewTopology()
		// Three 4-node rings with modest capacities so saturation happens.
		var rings [3][]*Link
		for r := range rings {
			for i := 0; i < 4; i++ {
				from := NodeID(fmt.Sprintf("r%d-n%d", r, i))
				to := NodeID(fmt.Sprintf("r%d-n%d", r, (i+1)%4))
				rings[r] = append(rings[r], topo.AddLink(from, to, 50+float64(i)*20+float64(r)*15, time.Millisecond, ""))
			}
		}
		n := NewNetwork(topo)
		n.SetMaxRate(500)
		var flows []*Flow
		for _, s := range specs {
			if len(flows) >= 36 {
				break
			}
			if s.B >= 224 && len(flows) > 0 {
				n.StopFlow(flows[int(s.A)%len(flows)])
				continue
			}
			ring := rings[int(s.A/4)%len(rings)]
			src := int(s.A) % 4
			hops := 1 + int(s.B)%3
			var p Path
			for h := 0; h < hops; h++ {
				p = append(p, ring[(src+h)%4])
			}
			d := float64(s.Demand%200) + 0.5
			if s.Demand%7 == 0 {
				d = math.Inf(1)
			}
			fl := n.StartFlow(p, d, "")
			n.SetWeight(fl, float64(s.Weight%5)) // 0 exercises "means 1"
			flows = append(flows, fl)
		}
		var live []*Flow
		for _, fl := range flows {
			if n.attached(fl) {
				live = append(live, fl)
			}
		}
		const eps = 1e-6
		// maxShare[l] is the largest rate/weight among the flows on link l.
		maxShare := make([]float64, topo.NumLinks())
		for _, fl := range live {
			for _, l := range fl.Path {
				maxShare[l.ID] = math.Max(maxShare[l.ID], fl.Rate/fl.weight())
			}
		}
		for _, l := range topo.Links() {
			if n.LinkRate(l.ID) > l.Capacity+eps {
				return false
			}
		}
		for _, fl := range live {
			ceiling := math.Min(fl.Demand, n.maxRate)
			if fl.Rate > ceiling+eps {
				return false
			}
			if fl.Rate >= ceiling-eps {
				continue
			}
			bottlenecked := false
			for _, l := range fl.Path {
				if n.LinkRate(l.ID) >= l.Capacity-eps && fl.Rate/fl.weight() >= maxShare[l.ID]-eps {
					bottlenecked = true
				}
			}
			if !bottlenecked {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestStartFlowDisconnectedPanics(t *testing.T) {
	topo := NewTopology()
	l1 := topo.AddLink("a", "b", 10, 0, "")
	l2 := topo.AddLink("c", "d", 10, 0, "")
	n := NewNetwork(topo)
	defer func() {
		if recover() == nil {
			t.Error("disconnected path did not panic")
		}
	}()
	n.StartFlow(Path{l1, l2}, 1, "")
}
