package control

import (
	"testing"
	"time"

	"eona/internal/netsim"
	"eona/internal/sim"
)

// coalesceNet builds a multi-component topology: r single-link rails with
// flowsPerRail application-limited flows each.
func coalesceNet(r, flowsPerRail int) (*netsim.Network, []*netsim.Flow) {
	topo := netsim.NewTopology()
	var paths []netsim.Path
	for i := 0; i < r; i++ {
		from := netsim.NodeID(rune('a' + i))
		to := netsim.NodeID(rune('A' + i))
		paths = append(paths, netsim.Path{topo.AddLink(from, to, 90e6, time.Millisecond, "")})
	}
	net := netsim.NewNetwork(topo)
	var flows []*netsim.Flow
	net.Batch(func() {
		for i := 0; i < r; i++ {
			for k := 0; k < flowsPerRail; k++ {
				flows = append(flows, net.StartFlow(paths[i], 1e6*float64(1+k), ""))
			}
		}
	})
	return net, flows
}

// The regression test for the coalescing contract: M monitors tripping at
// the same simulated instant produce exactly ONE reallocation, counted via
// the allocator's stats, with every reaction still applied.
func TestSameInstantMonitorReactionsOneReallocation(t *testing.T) {
	const M = 6
	e := sim.NewEngine(1)
	net, flows := coalesceNet(3, M)
	coal := NewCoalescer(e, net)

	reacted := 0
	for i := 0; i < M; i++ {
		i := i
		p, conn := newSession(e, 1e6, 5*time.Minute)
		NewMonitor(e, p, coal, func(*Monitor, Reason) {
			reacted++
			net.SetDemand(flows[i], 9e6)
		})
		// Starve every session at the same instant; the M identical
		// monitors then all trip at the same later check tick.
		e.Schedule(10*time.Second, func(*sim.Engine) { conn.rate = 1e4 })
	}
	base := net.Stats()
	e.Run(20 * time.Second) // one firing round: cooldown (10s) outlasts the horizon

	st := net.Stats()
	if reacted != M {
		t.Fatalf("%d of %d monitors reacted", reacted, M)
	}
	if got := st.CoalescedReactions - base.CoalescedReactions; got != M {
		t.Errorf("CoalescedReactions delta = %d, want %d", got, M)
	}
	if got := st.Reallocations - base.Reallocations; got != 1 {
		t.Errorf("%d same-instant reactions cost %d reallocations, want exactly 1", M, got)
	}
	for i := 0; i < M; i++ {
		if flows[i].Demand != 9e6 {
			t.Errorf("reaction %d not applied: demand = %v", i, flows[i].Demand)
		}
	}
}

// Without a Coalescer the same M monitors cost M reallocations — the
// baseline the coalescer is measured against.
func TestSameInstantMonitorReactionsUncoalescedBaseline(t *testing.T) {
	const M = 6
	e := sim.NewEngine(1)
	net, flows := coalesceNet(3, M)

	for i := 0; i < M; i++ {
		i := i
		p, conn := newSession(e, 1e6, 5*time.Minute)
		NewMonitor(e, p, nil, func(*Monitor, Reason) {
			net.SetDemand(flows[i], 9e6)
		})
		e.Schedule(10*time.Second, func(*sim.Engine) { conn.rate = 1e4 })
	}
	base := net.Stats()
	e.Run(20 * time.Second)

	st := net.Stats()
	if got := st.Reallocations - base.Reallocations; got != M {
		t.Errorf("uncoalesced reactions cost %d reallocations, want %d", got, M)
	}
	if st.CoalescedReactions != 0 {
		t.Errorf("CoalescedReactions = %d without a coalescer", st.CoalescedReactions)
	}
}

// driveReactions fires reactionsPerTick same-instant demand changes per
// simulated millisecond for ticks ticks, spread over the first spreadComps
// components, either directly (one commit each) or via a Coalescer (one
// commit per tick). Returns the network for counter inspection.
func driveReactions(ticks, reactionsPerTick, comps, flowsPerComp, spreadComps int, coalesce bool) *netsim.Network {
	e := sim.NewEngine(1)
	net, flows := coalesceNet(comps, flowsPerComp)
	coal := NewCoalescer(e, net)
	tick := 0
	e.Every(time.Millisecond, func(*sim.Engine) bool {
		tick++
		if tick > ticks {
			return false
		}
		for r := 0; r < reactionsPerTick; r++ {
			comp := r % spreadComps
			idx := comp*flowsPerComp + (tick+r/spreadComps)%flowsPerComp
			f := flows[idx]
			val := 1e6 * float64(1+(tick+r)%16)
			if coalesce {
				coal.Defer(func() { net.SetDemand(f, val) })
			} else {
				net.SetDemand(f, val)
			}
		}
		return true
	})
	e.Run(time.Duration(ticks+1) * time.Millisecond)
	return net
}

// Coalescing same-instant reactions that land in the same components must
// re-solve ≥2× fewer flows: M commits × component size collapse into one
// commit over the union of the touched components.
func TestCoalescingHalvesFlowsRecomputed(t *testing.T) {
	const ticks, reactions, comps, perComp, spread = 50, 8, 4, 8, 2
	direct := driveReactions(ticks, reactions, comps, perComp, spread, false)
	coal := driveReactions(ticks, reactions, comps, perComp, spread, true)

	if coal.Stats().CoalescedReactions != ticks*reactions {
		t.Fatalf("CoalescedReactions = %d, want %d", coal.Stats().CoalescedReactions, ticks*reactions)
	}
	ratio := float64(direct.Stats().FlowsRecomputed) / float64(coal.Stats().FlowsRecomputed)
	if ratio < 2 {
		t.Errorf("coalescing re-solved only %.2f× fewer flows (%d vs %d), want ≥2×",
			ratio, direct.Stats().FlowsRecomputed, coal.Stats().FlowsRecomputed)
	}
	// 8 reactions over 2 components per tick: 8 single-component commits
	// collapse into 1 two-component commit → exactly 4× here.
	if ratio < 3.5 {
		t.Errorf("expected ~4× on this shape, got %.2f×", ratio)
	}
}

// BenchmarkCoalescedReactions measures end-of-tick reaction coalescing on a
// multi-component topology: 8 same-instant reactions per tick spread over 2
// of 4 components, committed one-by-one vs folded into one batch. The
// flows-recomputed/op metric records the ≥2× work reduction (op = one tick).
func BenchmarkCoalescedReactions(b *testing.B) {
	run := func(b *testing.B, coalesce bool) {
		net := driveReactions(b.N, 8, 4, 8, 2, coalesce)
		b.ReportMetric(float64(net.Stats().FlowsRecomputed)/float64(b.N), "flows-recomputed/op")
	}
	b.Run("uncoalesced", func(b *testing.B) { run(b, false) })
	b.Run("coalesced", func(b *testing.B) { run(b, true) })
}
