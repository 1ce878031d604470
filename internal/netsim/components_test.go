package netsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// TestSnapshotComponents pins the control-plane membership accessor: two
// link-disjoint flow groups must surface as two components, each listing its
// flow IDs in ascending order.
func TestSnapshotComponents(t *testing.T) {
	topo := NewTopology()
	la := topo.AddLink("a", "b", 10e6, time.Millisecond, "left")
	lb := topo.AddLink("c", "d", 10e6, time.Millisecond, "right")
	n := NewNetwork(topo)

	f1 := n.StartFlow(Path{la}, 1e6, "l1")
	f2 := n.StartFlow(Path{la}, 1e6, "l2")
	f3 := n.StartFlow(Path{lb}, 1e6, "r1")

	comps := n.Snapshot().Components()
	if len(comps) != 2 {
		t.Fatalf("components = %d, want 2 (%+v)", len(comps), comps)
	}
	byFirst := map[FlowID][]FlowID{}
	for _, c := range comps {
		if len(c.Flows) == 0 {
			t.Fatalf("empty component %+v", c)
		}
		for i := 1; i < len(c.Flows); i++ {
			if c.Flows[i-1] >= c.Flows[i] {
				t.Errorf("component %d flows not ascending: %v", c.Slot, c.Flows)
			}
		}
		byFirst[c.Flows[0]] = c.Flows
	}
	if got := byFirst[f1.ID]; len(got) != 2 || got[0] != f1.ID || got[1] != f2.ID {
		t.Errorf("left component = %v, want [%d %d]", got, f1.ID, f2.ID)
	}
	if got := byFirst[f3.ID]; len(got) != 1 || got[0] != f3.ID {
		t.Errorf("right component = %v, want [%d]", got, f3.ID)
	}

	// Stopping a group removes its component from the next snapshot.
	n.StopFlow(f3)
	if comps := n.Snapshot().Components(); len(comps) != 1 {
		t.Errorf("after stop, components = %d, want 1", len(comps))
	}
}

// TestComponentsReproducible pins that component slot numbering is a function
// of the op sequence alone: the same seeded storm on two fresh networks must
// publish identical Components() after every commit. A re-split hands out
// slots while walking the stale component's members, and a commit re-splits
// stale components while walking its dirty lists, so this holds only because
// the first walk is in ID order and the second in op order — when either was
// a map iteration, every multi-way split (and every batch that left two
// components stale) took its slots in a different order each run. SetMaxRate
// is in the mix because it dirties every flow, so one commit re-splits every
// stale component at once; the refill must still match the oracle.
func TestComponentsReproducible(t *testing.T) {
	run := func() (trace [][]ComponentView, rebuilds uint64) {
		topo, links := rails(3, 4, 90)
		var paths []Path
		for _, r := range links {
			paths = append(paths, Path(r), Path(r[:2]), Path(r[2:]))
			for _, l := range r {
				paths = append(paths, Path{l})
			}
		}
		n := NewNetwork(topo)
		rng := rand.New(rand.NewSource(5))
		var flows []*Flow
		var op func(depth int)
		op = func(depth int) {
			pick := func() *Flow { return flows[rng.Intn(len(flows))] }
			switch k := rng.Intn(9); {
			case k < 3 || len(flows) == 0:
				flows = append(flows, n.StartFlow(paths[rng.Intn(len(paths))], float64(1+rng.Intn(50)), ""))
			case k < 5:
				n.StopFlow(pick())
			case k < 7:
				n.SetPath(pick(), paths[rng.Intn(len(paths))])
			case k == 7:
				n.SetMaxRate(float64(20 + rng.Intn(40))) // binds below the largest demands
			case depth < 2:
				n.Batch(func() {
					for i := rng.Intn(6); i >= 0; i-- {
						op(depth + 1)
					}
				})
			}
		}
		for step := 0; step < 600; step++ {
			op(0)
			requireOracle(t, n, fmt.Sprintf("step %d", step))
			trace = append(trace, n.Snapshot().Components())
		}
		return trace, n.stats.RegistryRebuilds
	}
	first, rebuilds := run()
	if rebuilds < 12 {
		t.Fatalf("storm provoked %d re-splits, want at least a dozen", rebuilds)
	}
	second, _ := run()
	for step := range first {
		if !reflect.DeepEqual(first[step], second[step]) {
			t.Fatalf("step %d: two runs of one storm disagree on components:\n%+v\n%+v", step, first[step], second[step])
		}
	}
}
