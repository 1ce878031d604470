package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestSnapshotMatchesNetwork pins the snapshot read surface to the live
// one: after arbitrary churn, every Reader query answered from a Snapshot
// equals the same query answered by the Network it was taken from, exactly
// — the two share the formula helpers, so any drift is a bug.
func TestSnapshotMatchesNetwork(t *testing.T) {
	for name, build := range sharedFixtures() {
		build := build
		t.Run(name, func(t *testing.T) {
			n, paths := build()
			rng := rand.New(rand.NewSource(11))
			var flows []*Flow
			check := func(step int) {
				t.Helper()
				sn := n.Snapshot()
				if sn.NumFlows() != n.NumFlows() {
					t.Fatalf("step %d: NumFlows %d != %d", step, sn.NumFlows(), n.NumFlows())
				}
				if sn.Stats() != n.Stats() {
					t.Fatalf("step %d: stats diverge", step)
				}
				for id := 0; id < n.Topology().NumLinks(); id++ {
					l := LinkID(id)
					if sn.LinkRate(l) != n.LinkRate(l) ||
						sn.Utilization(l) != n.Utilization(l) ||
						sn.Congestion(l) != n.Congestion(l) ||
						sn.Headroom(l) != n.Headroom(l) ||
						sn.QueueDelay(l) != n.QueueDelay(l) ||
						sn.LossRate(l) != n.LossRate(l) ||
						sn.FlowsOn(l) != n.FlowsOn(l) ||
						sn.ActiveFlowsOn(l) != n.ActiveFlowsOn(l) {
						t.Fatalf("step %d: link %d snapshot reads diverge from live", step, id)
					}
				}
				for _, f := range flows {
					v, ok := sn.Flow(f.ID)
					if n.attached(f) {
						if !ok || v.Rate != f.Rate || v.Demand != f.Demand || v.Weight != f.Weight || v.Tag != f.Tag {
							t.Fatalf("step %d: flow %d view %+v diverges from live", step, f.ID, v)
						}
					} else if ok {
						t.Fatalf("step %d: stopped flow %d present in snapshot", step, f.ID)
					}
				}
			}
			check(-1)
			for step := 0; step < 120; step++ {
				op := rng.Intn(6)
				if len(flows) == 0 {
					op = 0
				}
				pi := rng.Intn(len(paths))
				val := float64(1 + rng.Intn(300))
				if rng.Intn(6) == 0 {
					val = math.Inf(1)
				}
				switch op {
				case 0:
					flows = append(flows, n.StartFlow(paths[pi], val, "snap"))
				case 1:
					n.StopFlow(flows[rng.Intn(len(flows))])
				case 2:
					n.SetDemand(flows[rng.Intn(len(flows))], val)
				case 3:
					n.SetWeight(flows[rng.Intn(len(flows))], float64(1+rng.Intn(4)))
				case 4:
					n.SetPath(flows[rng.Intn(len(flows))], paths[pi])
				case 5:
					p := paths[pi]
					n.SetLinkCapacity(p[rng.Intn(len(p))].ID, float64(50+rng.Intn(200)))
				}
				check(step)
			}
		})
	}
}

// A snapshot taken before a mutation must not see it: immutability pin.
func TestSnapshotImmutable(t *testing.T) {
	topo, p := line(100)
	n := NewNetwork(topo)
	f := n.StartFlow(p, math.Inf(1), "")
	before := n.Snapshot()
	n.SetDemand(f, 10)
	n.SetLinkCapacity(p[0].ID, 40)
	if got := before.LinkRate(p[0].ID); got != 100 {
		t.Errorf("old snapshot link rate mutated: %v, want 100", got)
	}
	if v, _ := before.Flow(f.ID); v.Rate != 100 {
		t.Errorf("old snapshot flow rate mutated: %v, want 100", v.Rate)
	}
	if got := before.Headroom(p[0].ID); got != 0 {
		t.Errorf("old snapshot headroom mutated: %v, want 0", got)
	}
	if got := n.Snapshot().LinkRate(p[0].ID); got != 10 {
		t.Errorf("fresh snapshot link rate = %v, want 10", got)
	}
}

// TestSnapshotFlowLookup pins Snapshot.Flow on the index-free flow table:
// after every op of a seeded run through a SharedNetwork (so the chunks come
// from the copy-on-write publish path, shared, re-filled and rebuilt), Flow
// must agree with a map built from Flows for every ID ever issued — live
// hits, stopped flows, IDs that fall between two chunks' ranges — and for
// IDs below and above all of them. It must also allocate nothing.
func TestSnapshotFlowLookup(t *testing.T) {
	n, paths := sharedFixtures()["rails"]()
	s := NewShared(n, SharedConfig{})
	defer s.Close()
	var flows []*Flow
	issued := FlowID(0)
	live, freed := map[int]bool{}, map[int]bool{} // chunk slots: in the last snapshot; freed at least once
	reused := false
	check := func(phase string) {
		t.Helper()
		sn := s.Snapshot()
		want := map[FlowID]FlowView{}
		sn.Flows(func(v FlowView) { want[v.ID] = v })
		if len(want) != sn.NumFlows() {
			t.Fatalf("%s: Flows visited %d distinct flows, NumFlows %d", phase, len(want), sn.NumFlows())
		}
		for id := FlowID(-2); id <= issued+2; id++ {
			got, ok := sn.Flow(id)
			if w, live := want[id]; ok != live || got != w {
				t.Fatalf("%s: Flow(%d) = %+v, %v; Flows says %+v, %v", phase, id, got, ok, w, live)
			}
		}
		now := map[int]bool{}
		for _, c := range sn.Components() {
			now[c.Slot] = true
			reused = reused || freed[c.Slot]
		}
		for slot := range live {
			freed[slot] = freed[slot] || !now[slot]
		}
		live = now
	}
	check("empty")
	rng := rand.New(rand.NewSource(3))
	for step := 0; step < 300; step++ {
		switch op := rng.Intn(7); {
		case op < 3 || len(flows) == 0:
			flows = append(flows, s.StartFlow(paths[rng.Intn(len(paths))], float64(1+rng.Intn(300)), "look"))
			issued = flows[len(flows)-1].ID
		case op < 5:
			s.StopFlow(flows[rng.Intn(len(flows))])
		case op == 5:
			s.SetPath(flows[rng.Intn(len(flows))], paths[rng.Intn(len(paths))])
		default:
			s.SetDemand(flows[rng.Intn(len(flows))], float64(1+rng.Intn(300)))
		}
		check(fmt.Sprintf("step %d", step))
	}
	if !reused {
		t.Error("run never reused a freed chunk slot")
	}
	sn, hit := s.Snapshot(), FlowID(-1)
	sn.Flows(func(v FlowView) { hit = v.ID })
	if a := testing.AllocsPerRun(200, func() {
		sn.Flow(hit)
		sn.Flow(issued + 1)
	}); hit < 0 || a != 0 {
		t.Errorf("Flow allocates %v allocs per hit+miss (hit ID %d), want 0", a, hit)
	}
	for _, f := range flows {
		s.StopFlow(f)
	}
	check("drained")
}
