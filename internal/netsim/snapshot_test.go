package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
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

// TestSnapshotKeepsPublishedWeightAndIdentity pins the immutability of a
// chunk that points at its flows: after a snapshot is published, the flow's
// weight changes, the flow stops and a new flow takes its arena index, and
// the old snapshot must still report the flow's old weight, ID and tag
// through Flow, Flows and Components.
func TestSnapshotKeepsPublishedWeightAndIdentity(t *testing.T) {
	n, paths := sharedFixtures()["rails"]()
	s := NewShared(n, SharedConfig{})
	defer s.Close()
	var others []*Flow
	for i := 0; i < 6; i++ {
		others = append(others, s.StartFlow(paths[i%len(paths)], 10, "other"))
	}
	f := s.StartFlow(paths[0], 10, "old")
	s.SetWeight(f, 2)
	id, idx := f.ID, f.idx
	old := s.Snapshot()
	want, ok := old.Flow(id)
	if !ok || want.ID != id || want.Weight != 2 || want.Tag != "old" {
		t.Fatalf("published view %+v, %v", want, ok)
	}

	s.SetWeight(f, 3)
	s.StopFlow(f)
	g := s.StartFlow(paths[0], 20, "new")
	if g.idx != idx {
		t.Fatalf("new flow took arena index %d, want the stopped flow's %d", g.idx, idx)
	}
	s.SetWeight(g, 4)

	if v, ok := old.Flow(id); !ok || v != want {
		t.Errorf("Flow(%d) = %+v, %v after churn; published %+v", id, v, ok, want)
	}
	if _, ok := old.Flow(g.ID); ok {
		t.Errorf("old snapshot sees flow %d started after it", g.ID)
	}
	seen := 0
	old.Flows(func(v FlowView) {
		if v.ID == id {
			seen++
			if v != want {
				t.Errorf("Flows reports %+v, published %+v", v, want)
			}
		}
		if v.ID == g.ID || v.Tag == "new" {
			t.Errorf("Flows reports %+v, started after the snapshot", v)
		}
	})
	if seen != 1 || old.NumFlows() != len(others)+1 {
		t.Errorf("Flows visited flow %d %d times over %d flows", id, seen, old.NumFlows())
	}
	inComp := 0
	for _, c := range old.Components() {
		for _, cid := range c.Flows {
			if cid == id {
				inComp++
			}
			if cid == g.ID {
				t.Errorf("Components lists flow %d, started after the snapshot", g.ID)
			}
		}
	}
	if inComp != 1 {
		t.Errorf("Components lists flow %d %d times", id, inComp)
	}
	if v, ok := s.Snapshot().Flow(g.ID); !ok || v.Weight != 4 || v.Tag != "new" {
		t.Errorf("current snapshot Flow(%d) = %+v, %v", g.ID, v, ok)
	}
}

// TestSnapshotReadsUnderChurn has readers walk fresh snapshots with Flows
// and Flow while a writer starts, stops and re-weights flows, so chunk
// handles are read while the owner writes the same flows' other fields.
// Every snapshot must agree with itself. scripts/check.sh runs it under
// -race, 20 times.
func TestSnapshotReadsUnderChurn(t *testing.T) {
	n, paths := sharedFixtures()["rails"]()
	s := NewShared(n, SharedConfig{})
	defer s.Close()
	var live []*Flow
	for i := 0; i < 24; i++ {
		live = append(live, s.StartFlow(paths[i%len(paths)], float64(10+i), "hammer"))
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				sn := s.Snapshot()
				count := 0
				sn.Flows(func(v FlowView) {
					count++
					if w, ok := sn.Flow(v.ID); !ok || w != v {
						t.Errorf("snapshot %d: Flow(%d) = %+v, %v; Flows says %+v", sn.Seq, v.ID, w, ok, v)
					}
					if v.Tag != "hammer" {
						t.Errorf("snapshot %d: flow %d tag %q", sn.Seq, v.ID, v.Tag)
					}
				})
				if count != sn.NumFlows() {
					t.Errorf("snapshot %d: Flows visited %d of %d", sn.Seq, count, sn.NumFlows())
				}
			}
		}()
	}
	rng := rand.New(rand.NewSource(5))
	for step := 0; step < 400; step++ {
		k := rng.Intn(len(live))
		switch rng.Intn(3) {
		case 0:
			s.StopFlow(live[k])
			live[k] = s.StartFlow(paths[rng.Intn(len(paths))], float64(1+rng.Intn(300)), "hammer")
		default:
			s.SetWeight(live[k], float64(1+rng.Intn(4)))
		}
	}
	close(done)
	wg.Wait()
}
