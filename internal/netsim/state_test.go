package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"
)

// TestExportImportRoundTrip drives churn on every fixture, exports the
// state, imports it into a fresh network, and requires bit-identical flows,
// rates and capacities — plus matching digests and a continued ID sequence.
func TestExportImportRoundTrip(t *testing.T) {
	for name, build := range sharedFixtures() {
		build := build
		t.Run(name, func(t *testing.T) {
			ops, orig := driveSharedDeterministic(t, build, 3, 4, 4, 10)
			if len(ops) == 0 {
				t.Fatal("fixture produced no ops")
			}
			st := orig.ExportState()

			restored, _ := build()
			if err := restored.ImportState(st); err != nil {
				t.Fatalf("import: %v", err)
			}
			requireIdenticalNetworks(t, "export/import", orig, restored)
			if a, b := orig.StateDigest(), restored.StateDigest(); a != b {
				t.Fatalf("digest %x != %x after round trip", a, b)
			}
			// Exported rates match the live allocation.
			for id, r := range st.LinkRates {
				if got := restored.LinkRate(LinkID(id)); got != r {
					t.Fatalf("link %d rate %v != exported %v", id, got, r)
				}
			}
			// The ID counter resumes: the next flow on each network gets
			// the same ID.
			p, _ := restored.topo.pathOf(linkIDs(findAnyFlowPath(orig)))
			f1 := orig.StartFlow(findAnyFlowPath(orig), 1, "x")
			f2 := restored.StartFlow(p, 1, "x")
			if f1.ID != f2.ID {
				t.Fatalf("post-import StartFlow assigned %d, original %d", f2.ID, f1.ID)
			}
		})
	}
}

// findAnyFlowPath returns some live flow's path, or panics (fixtures always
// leave flows running).
func findAnyFlowPath(n *Network) Path {
	for _, f := range n.flows {
		return f.Path
	}
	panic("no live flows")
}

func TestImportStateRejectsNonFresh(t *testing.T) {
	topo, p := line(100)
	n := NewNetwork(topo)
	n.StartFlow(p, 10, "")
	if err := n.ImportState(NetState{Capacities: make([]float64, topo.NumLinks())}); err == nil {
		t.Fatal("ImportState on a used network succeeded")
	}
}

func TestImportStateRejectsBadState(t *testing.T) {
	topo, _ := line(100)
	fresh := func() *Network { return NewNetwork(topo) }
	nl := topo.NumLinks()
	caps := func() []float64 {
		c := make([]float64, nl)
		for i := range c {
			c[i] = 100
		}
		return c
	}
	if err := fresh().ImportState(NetState{Capacities: caps()[:nl-1]}); err == nil {
		t.Error("capacity count mismatch accepted")
	}
	bad := caps()
	bad[0] = 0
	if err := fresh().ImportState(NetState{Capacities: bad}); err == nil {
		t.Error("non-positive capacity accepted")
	}
	if err := fresh().ImportState(NetState{Capacities: caps(), NextID: 1, Flows: []FlowState{
		{ID: 1, Links: []LinkID{0}, Demand: 1}, {ID: 1, Links: []LinkID{0}, Demand: 1},
	}}); err == nil {
		t.Error("non-ascending flow IDs accepted")
	}
	if err := fresh().ImportState(NetState{Capacities: caps(), NextID: 0, Flows: []FlowState{
		{ID: 3, Links: []LinkID{99}, Demand: 1},
	}}); err == nil {
		t.Error("unknown link in flow path accepted")
	}
}

// TestStateDigestSensitivity: the digest must move on every allocator
// input — flow set, demand, weight, path, tag, capacity, MaxRate — and must
// not move on reads or snapshots.
func TestStateDigestSensitivity(t *testing.T) {
	topo := NewTopology()
	a := topo.AddLink("a", "b", 100, time.Millisecond, "")
	b := topo.AddLink("b", "c", 100, time.Millisecond, "")
	n := NewNetwork(topo)
	seen := map[uint64]string{n.StateDigest(): "initial"}
	step := func(label string, mutate func()) {
		t.Helper()
		mutate()
		d := n.StateDigest()
		if prev, dup := seen[d]; dup {
			t.Fatalf("digest after %q collides with %q", label, prev)
		}
		seen[d] = label
	}
	f := n.StartFlow(Path{a, b}, math.Inf(1), "t")
	step("start", func() {})
	step("set-demand", func() { n.SetDemand(f, 40) })
	step("set-weight", func() { n.SetWeight(f, 2) })
	step("set-path", func() { n.SetPath(f, Path{a}) })
	step("set-capacity", func() { n.SetLinkCapacity(b.ID, 55) })
	step("max-rate", func() { n.SetMaxRate(5e8) })

	d := n.StateDigest()
	_ = n.Snapshot()
	_ = n.Utilization(a.ID)
	if n.StateDigest() != d {
		t.Fatal("reads moved the digest")
	}
	// Stopping the flow changes the digest even though the flow set
	// returns to empty-plus-counter: nextID advanced past the start.
	step("stop", func() { n.StopFlow(f) })
}

// TestStateDigestStableInsideBatch: the digest reflects inputs eagerly, so
// it is identical whether ops were applied batched or one at a time — the
// property that makes per-op journal digests comparable across
// SharedNetwork's immediate and deterministic modes.
func TestStateDigestStableInsideBatch(t *testing.T) {
	topo, p := line(100, 80, 120)
	serial := NewNetwork(topo)
	batched := NewNetwork(topo)

	fs := serial.StartFlow(p, 10, "x")
	serial.SetDemand(fs, 70)
	serial.SetLinkCapacity(p[0].ID, 90)
	want := serial.StateDigest()

	var got uint64
	batched.Batch(func() {
		fb := batched.StartFlow(p, 10, "x")
		batched.SetDemand(fb, 70)
		batched.SetLinkCapacity(p[0].ID, 90)
		got = batched.StateDigest() // mid-batch: rates stale, inputs current
	})
	if got != want {
		t.Fatalf("mid-batch digest %x != serial digest %x", got, want)
	}
	if batched.StateDigest() != want {
		t.Fatalf("post-batch digest moved: %x != %x", batched.StateDigest(), want)
	}
}

func TestTopoStateRoundTrip(t *testing.T) {
	topo := NewTopology()
	topo.AddLink("a", "b", 100, 2*time.Millisecond, "access")
	topo.AddLink("b", "c", 50, time.Millisecond, "peer")
	topo.AddLink("c", "b", 50, time.Millisecond, "peer-rev")
	rebuilt := ExportTopology(topo).Build()
	if rebuilt.NumLinks() != topo.NumLinks() {
		t.Fatalf("rebuilt %d links, want %d", rebuilt.NumLinks(), topo.NumLinks())
	}
	for i := 0; i < topo.NumLinks(); i++ {
		a, b := topo.Link(LinkID(i)), rebuilt.Link(LinkID(i))
		if a.From != b.From || a.To != b.To || a.Capacity != b.Capacity || a.Delay != b.Delay || a.Name != b.Name {
			t.Fatalf("link %d: %+v != %+v", i, a, b)
		}
	}
}

// exportStateOracle is the export reference: the map walk and sort that
// exportState's merge over the component member lists replaced. It trusts
// nothing the registry maintains — it reads n.flows and the topology — so a
// component that loses or duplicates a member parts ways with it.
func exportStateOracle(n *Network) NetState {
	st := NetState{
		NextID:     n.nextID,
		MaxRate:    n.maxRate,
		Capacities: make([]float64, n.topo.NumLinks()),
		LinkRates:  make([]float64, n.topo.NumLinks()),
	}
	for i, l := range n.topo.links {
		st.Capacities[i] = l.Capacity
	}
	copy(st.LinkRates, n.linkRate)
	ids := make([]FlowID, 0, len(n.flows))
	for id := range n.flows {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	st.Flows = make([]FlowState, 0, len(ids))
	for _, id := range ids {
		f := n.flows[id]
		st.Flows = append(st.Flows, FlowState{
			ID: id, Links: linkIDs(f.Path), Demand: f.Demand, Weight: f.Weight, Tag: f.Tag,
		})
	}
	return st
}

// requireExportShape fails unless st lists every live flow of n exactly
// once, in strictly ascending ID, with each Links capped at its own length.
func requireExportShape(t *testing.T, phase string, n *Network, st NetState) {
	t.Helper()
	if len(st.Flows) != len(n.flows) {
		t.Fatalf("%s: %d flows exported, %d live", phase, len(st.Flows), len(n.flows))
	}
	for k, fs := range st.Flows {
		if k > 0 && fs.ID <= st.Flows[k-1].ID {
			t.Fatalf("%s: flow %d follows %d", phase, fs.ID, st.Flows[k-1].ID)
		}
		if n.flows[fs.ID] == nil {
			t.Fatalf("%s: exported flow %d is not live", phase, fs.ID)
		}
		if cap(fs.Links) != len(fs.Links) {
			t.Fatalf("%s: flow %d Links has cap %d, len %d", phase, fs.ID, cap(fs.Links), len(fs.Links))
		}
	}
}

// TestExportMatchesOracle runs a seeded storm on every differential fixture
// — starts, stops, SetPath moves and stops that leave stale components, nested
// batches, weight, demand and capacity edits — and after every op, inside
// batches too, requires both the fresh ExportState and the owner's
// reused-scratch export to equal the oracle. The storm ends by stopping
// flows one at a time, so the scratch, which once held a longer export,
// must shrink without a stale tail.
func TestExportMatchesOracle(t *testing.T) {
	staleChecks := 0
	for name, build := range diffFixtures() {
		build := build
		t.Run(name, func(t *testing.T) {
			n, paths := build()
			rng := rand.New(rand.NewSource(44))
			var (
				flows   []*Flow
				scratch NetState
				links   []LinkID
				peak    int
			)
			check := func(phase string) {
				t.Helper()
				want := exportStateOracle(n)
				got := n.ExportState()
				requireExportShape(t, phase+" fresh", n, got)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: ExportState differs from the oracle", phase)
				}
				links = n.exportState(&scratch, links)
				requireExportShape(t, phase+" scratch", n, scratch)
				if !reflect.DeepEqual(scratch, want) {
					t.Fatalf("%s: reused-scratch export differs from the oracle", phase)
				}
				peak = max(peak, len(scratch.Flows))
				for _, c := range n.slotComp {
					if c != nil && c.stale {
						staleChecks++
						break
					}
				}
			}
			var op func(depth int)
			op = func(depth int) {
				kind := rng.Intn(8)
				if len(flows) == 0 {
					kind = 0
				}
				p := paths[rng.Intn(len(paths))]
				f := (*Flow)(nil)
				if len(flows) > 0 {
					f = flows[rng.Intn(len(flows))]
				}
				switch kind {
				case 0, 1:
					flows = append(flows, n.StartFlow(p, float64(1+rng.Intn(300)), fmt.Sprintf("t%d", rng.Intn(3))))
				case 2:
					n.StopFlow(f)
				case 3:
					n.SetPath(f, p)
				case 4:
					n.SetWeight(f, float64(rng.Intn(4)))
				case 5:
					n.SetDemand(f, float64(rng.Intn(300)))
				case 6:
					n.SetLinkCapacity(p[rng.Intn(len(p))].ID, float64(50+rng.Intn(200)))
				case 7:
					if depth < 2 {
						n.Batch(func() {
							for k := rng.Intn(5); k >= 0; k-- {
								op(depth + 1)
							}
						})
					}
				}
				check(fmt.Sprintf("depth %d op %d", depth, kind))
			}
			check("empty")
			for step := 0; step < 300; step++ {
				op(0)
			}
			for _, f := range flows {
				n.StopFlow(f)
				check("drain")
			}
			if peak < 5 {
				t.Errorf("storm peaked at %d flows; the drain tests too little", peak)
			}
		})
	}
	if staleChecks == 0 {
		t.Error("no export ran over a stale component")
	}
}
