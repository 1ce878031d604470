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

// --- Allocator ≡ oracle differential on the topology fixtures ---------------

// runRegistryDifferential drives one network through a randomized mutation
// sequence over the fixture's path set, asserting after every mutation that
// every flow rate and every link rate equals the oracle's (oracle_test.go)
// exactly, bit for bit. Returns the number of lazy registry re-splits the
// sequence provoked.
func runRegistryDifferential(t *testing.T, seed int64, build func() (*Network, []Path)) uint64 {
	t.Helper()
	n, paths := build()
	var flows []*Flow
	rng := rand.New(rand.NewSource(seed))
	for step := 0; step < 400; step++ {
		op := rng.Intn(5)
		if len(flows) == 0 {
			op = 0
		}
		pi := rng.Intn(len(paths))
		val := float64(1+rng.Intn(300)) * 1e0
		if rng.Intn(5) == 0 {
			val = math.Inf(1)
		}
		fi, w := 0, 0.0
		if len(flows) > 0 {
			fi = rng.Intn(len(flows))
		}
		if op == 3 {
			w = float64(1 + rng.Intn(4))
		}
		switch op {
		case 0:
			flows = append(flows, n.StartFlow(paths[pi], val, ""))
		case 1:
			n.StopFlow(flows[fi])
		case 2:
			n.SetDemand(flows[fi], val)
		case 3:
			n.SetWeight(flows[fi], w)
		case 4:
			n.SetPath(flows[fi], paths[pi])
		}
		requireOracle(t, n, fmt.Sprintf("step %d", step))
	}
	return n.stats.RegistryRebuilds
}

// diffFixtures is the topology fixture set every differential test runs
// over: a deep line, parallel rails with sub-paths, the E1 scenario topology
// and a hub-and-spokes star with skewed capacities.
func diffFixtures() map[string]func() (*Network, []Path) {
	return map[string]func() (*Network, []Path){
		"line": func() (*Network, []Path) {
			topo, p := line(100)
			return NewNetwork(topo), []Path{p}
		},
		"rails": func() (*Network, []Path) {
			topo, links := rails(4, 3, 90)
			n := NewNetwork(topo)
			var ps []Path
			for i := range links {
				ps = append(ps,
					Path(links[i]),
					Path{links[i][0]},
					Path{links[i][1], links[i][2]})
			}
			return n, ps
		},
		"e1": func() (*Network, []Path) {
			n, p1, p2 := e1SetupTopology()
			return n, []Path{p1, p2}
		},
		"skewed": func() (*Network, []Path) {
			topo := NewTopology()
			hub := topo.AddLink("hubA", "hubB", 1000, time.Millisecond, "")
			ps := []Path{{hub}}
			for i := 0; i < 4; i++ {
				from := NodeID(rune('a' + i))
				to := NodeID(rune('A' + i))
				ps = append(ps, Path{topo.AddLink(from, to, 90, time.Millisecond, "")})
			}
			return NewNetwork(topo), ps
		},
	}
}

func TestRegistryDifferentialOnFixtures(t *testing.T) {
	// Single-link fixtures (line, skewed) can never split a component;
	// assert the lazy re-split was exercised somewhere across the fixture
	// set rather than per fixture.
	var rebuilds uint64
	for name, build := range diffFixtures() {
		build := build
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 5; seed++ {
				rebuilds += runRegistryDifferential(t, seed, build)
			}
		})
	}
	if rebuilds == 0 {
		t.Error("registry re-split never exercised across any fixture")
	}
}

// --- Registry invalidation under nested batches ----------------------------

// SetPath inside a nested batch moves flows between components; the commit
// at the outermost EndBatch must see coherent membership and cost exactly
// one reallocation.
func TestRegistrySetPathInsideNestedBatch(t *testing.T) {
	build := func() (*Network, [][]*Link, []*Flow) {
		topo, links := rails(3, 2, 90)
		n := NewNetwork(topo)
		var flows []*Flow
		n.Batch(func() {
			for i := range links {
				for k := 0; k < 3; k++ {
					flows = append(flows, n.StartFlow(Path(links[i]), math.Inf(1), ""))
				}
			}
		})
		return n, links, flows
	}
	mutate := func(n *Network, links [][]*Link, flows []*Flow) {
		n.Batch(func() {
			n.SetDemand(flows[0], 5)
			n.Batch(func() {
				n.SetPath(flows[1], Path(links[1]))    // rail 0 → rail 1
				n.SetPath(flows[4], Path{links[2][1]}) // rail 1 → rail 2 suffix
				n.StopFlow(flows[2])
			})
			n.StartFlow(Path{links[0][0]}, 40, "")
		})
	}

	n, links, flows := build()
	before := n.stats.Reallocations
	mutate(n, links, flows)
	if got := n.stats.Reallocations - before; got != 1 {
		t.Errorf("nested batch cost %d reallocations, want 1", got)
	}

	requireOracle(t, n, "nested batch")
}

// Stopping and restarting flows on the same path must keep membership
// coherent without ever re-splitting: the surviving flows still cover the
// whole path, which the cheap removal check proves.
func TestRegistryStopThenRestart(t *testing.T) {
	topo, links := rails(2, 2, 90)
	n := NewNetwork(topo)
	var flows []*Flow
	n.Batch(func() {
		for i := range links {
			for k := 0; k < 4; k++ {
				flows = append(flows, n.StartFlow(Path(links[i]), math.Inf(1), ""))
			}
		}
	})
	for round := 0; round < 10; round++ {
		idx := round % len(flows)
		old := flows[idx]
		n.Batch(func() {
			n.StopFlow(old)
			flows[idx] = n.StartFlow(old.Path, math.Inf(1), "")
		})
	}
	if n.stats.RegistryRebuilds != 0 {
		t.Errorf("identical-path stop/restart churn caused %d rebuilds, want 0", n.stats.RegistryRebuilds)
	}
	// All four flows per rail share the 90-capacity rail equally.
	for i, f := range flows {
		if !almostEq(f.Rate, 22.5) {
			t.Errorf("flow %d rate = %v, want 22.5", i, f.Rate)
		}
	}
}

// When the last flows stop, their components must be dropped entirely —
// long-running sims must not accumulate empty component husks.
func TestRegistryEmptyComponentCleanup(t *testing.T) {
	topo, links := rails(3, 2, 90)
	n := NewNetwork(topo)
	var flows []*Flow
	n.Batch(func() {
		for i := range links {
			for k := 0; k < 2; k++ {
				flows = append(flows, n.StartFlow(Path(links[i]), 30, ""))
			}
		}
	})
	if len(n.comp) != len(flows) {
		t.Fatalf("registry tracks %d flows, want %d", len(n.comp), len(flows))
	}
	n.Batch(func() {
		for _, f := range flows {
			n.StopFlow(f)
		}
	})
	if len(n.comp) != 0 {
		t.Errorf("registry still tracks %d flows after all stopped", len(n.comp))
	}
	for id := 0; id < topo.NumLinks(); id++ {
		if n.LinkRate(LinkID(id)) != 0 {
			t.Errorf("link %d rate = %v after all flows stopped", id, n.LinkRate(LinkID(id)))
		}
	}
}

// --- ID-sorted membership ---------------------------------------------------

// A started flow carries the largest ID ever issued, so StartFlow only ever
// appends to a member list. These are the membership changes that do not:
// merges whose two sides interleave or arrive in the "wrong" order, and
// removals at each end and in the middle.
func TestRegistryMembersStaySorted(t *testing.T) {
	topo := NewTopology()
	a := topo.AddLink("A", "B", 100, time.Millisecond, "")
	b := topo.AddLink("B", "C", 100, time.Millisecond, "")
	n := NewNetwork(topo)
	want := func(phase string, comps ...[]FlowID) {
		t.Helper()
		requireOracle(t, n, phase)
		var got [][]FlowID
		for _, c := range n.Snapshot().Components() {
			got = append(got, c.Flows)
		}
		slices.SortFunc(got, func(x, y []FlowID) int { return int(x[0] - y[0]) })
		if !reflect.DeepEqual(got, comps) {
			t.Fatalf("%s: components %v, want %v", phase, got, comps)
		}
	}

	// Two singletons tie on size, so the *new* one survives and the older,
	// lower-ID one is merged in beneath it.
	f0 := n.StartFlow(Path{a}, 10, "")
	f1 := n.StartFlow(Path{a}, 10, "")
	want("new singleton survives", []FlowID{0, 1})

	// Interleave the two links' members: a = {0,1,3,5}, b = {2,4,6}.
	var f [7]*Flow
	f[0], f[1] = f0, f1
	for id := 2; id < len(f); id++ {
		f[id] = n.StartFlow(Path{[]*Link{b, a}[id%2]}, 10, "")
	}
	want("interleaved setup", []FlowID{0, 1, 3, 5}, []FlowID{2, 4, 6})

	// The lowest ID of all moves into the other component: a singleton that
	// belongs in front of every member of the survivor.
	n.SetPath(f[0], Path{b})
	want("lowest ID joins", []FlowID{0, 2, 4, 6}, []FlowID{1, 3, 5})

	// Removals: first, middle and last member of a list.
	n.StopFlow(f[0])
	want("first removed", []FlowID{1, 3, 5}, []FlowID{2, 4, 6})
	n.StopFlow(f[4])
	want("middle removed", []FlowID{1, 3, 5}, []FlowID{2, 6})
	n.StopFlow(f[5])
	want("last removed", []FlowID{1, 3}, []FlowID{2, 6})

	// A bridge unions two multi-member components whose IDs interleave.
	bridge := n.StartFlow(Path{a, b}, 10, "")
	want("interleaved union", []FlowID{1, 2, 3, 6, bridge.ID})

	// ...and re-pathing a middle member inside a nested batch puts it back
	// where it was.
	n.Batch(func() {
		n.Batch(func() { n.SetPath(f[3], Path{b}) })
		n.SetPath(f[3], Path{a})
	})
	want("middle member re-pathed", []FlowID{1, 2, 3, 6, bridge.ID})
}

// --- Lazy re-split ----------------------------------------------------------

// Removing a bridge flow splits its component; the registry must detect the
// possible split (one rebuild), produce exact components, and from then on
// keep unrelated halves untouched.
func TestRegistryBridgeRemovalSplits(t *testing.T) {
	topo := NewTopology()
	a := topo.AddLink("A", "B", 100, time.Millisecond, "")
	b := topo.AddLink("B", "C", 200, time.Millisecond, "")
	n := NewNetwork(topo)
	f1 := n.StartFlow(Path{a}, math.Inf(1), "")
	f2 := n.StartFlow(Path{b}, math.Inf(1), "")
	bridge := n.StartFlow(Path{a, b}, math.Inf(1), "")
	if !almostEq(f1.Rate, 50) || !almostEq(bridge.Rate, 50) || !almostEq(f2.Rate, 150) {
		t.Fatalf("pre-split rates = %v %v %v", f1.Rate, f2.Rate, bridge.Rate)
	}
	n.StopFlow(bridge)
	if n.stats.RegistryRebuilds != 1 {
		t.Errorf("bridge removal caused %d rebuilds, want 1", n.stats.RegistryRebuilds)
	}
	if !almostEq(f1.Rate, 100) || !almostEq(f2.Rate, 200) {
		t.Errorf("post-split rates = %v %v, want 100 200", f1.Rate, f2.Rate)
	}
	// The halves are now separate components: churning one must not
	// rewrite the other's bits.
	before := f2.Rate
	inc := n.stats.IncrementalReallocations
	n.SetDemand(f1, 7)
	if n.stats.IncrementalReallocations != inc+1 {
		t.Error("post-split mutation did not take the incremental path")
	}
	if f2.Rate != before {
		t.Errorf("churn in split-off half disturbed the other: %v -> %v", before, f2.Rate)
	}
	if !almostEq(f1.Rate, 7) {
		t.Errorf("f1 rate = %v, want 7", f1.Rate)
	}
}

// A removal whose surviving co-flows provably keep the component connected
// (the cover check) must not rebuild at all.
func TestRegistryNoRebuildWhenCovered(t *testing.T) {
	topo, links := rails(1, 3, 90)
	n := NewNetwork(topo)
	full := Path(links[0])
	cover := n.StartFlow(full, math.Inf(1), "") // spans every link
	mid := n.StartFlow(Path{links[0][1]}, math.Inf(1), "")
	span := n.StartFlow(full, math.Inf(1), "")
	n.StopFlow(span) // cover still spans all populated links: no split possible
	if n.stats.RegistryRebuilds != 0 {
		t.Errorf("covered removal caused %d rebuilds, want 0", n.stats.RegistryRebuilds)
	}
	if !almostEq(cover.Rate, 45) || !almostEq(mid.Rate, 45) {
		t.Errorf("rates = %v %v, want 45 45", cover.Rate, mid.Rate)
	}
}

// --- Stats snapshot ---------------------------------------------------------

func TestStatsSnapshot(t *testing.T) {
	topo, links := rails(2, 2, 90)
	n := NewNetwork(topo)
	f := n.StartFlow(Path(links[0]), math.Inf(1), "")
	n.StartFlow(Path(links[1]), math.Inf(1), "")
	n.SetDemand(f, 30)
	st := n.Stats()
	if snap := n.Snapshot().Stats(); snap != st {
		t.Errorf("snapshot counters %+v diverge from the network's %+v", snap, st)
	}
	if st.IncrementalReallocations != st.Reallocations {
		t.Errorf("IncrementalReallocations = %d, want Reallocations = %d (every commit is incremental)", st.IncrementalReallocations, st.Reallocations)
	}
	if st.Reallocations != 3 {
		t.Errorf("Reallocations = %d, want 3", st.Reallocations)
	}
	if st.FlowsRecomputed == 0 || st.ComponentsRecomputed == 0 {
		t.Error("work counters stayed zero")
	}
	if st.CoalescedReactions != 0 {
		t.Error("CoalescedReactions nonzero without a coalescer")
	}
}

// --- Benchmarks -------------------------------------------------------------

// BenchmarkChurnDiscovery measures single-mutation commits on the 64×3-rail
// topology (512 flows in 64 components): each op finds and fills one 8-flow
// component.
func BenchmarkChurnDiscovery(b *testing.B) {
	topo, links := rails(64, 3, 1e8)
	n := NewNetwork(topo)
	var flows []*Flow
	n.Batch(func() {
		for i := range links {
			for k := 0; k < 8; k++ {
				flows = append(flows, n.StartFlow(Path(links[i]), 1e6*float64(1+k), ""))
			}
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.SetDemand(flows[i%len(flows)], 1e6*float64(1+(i+i/len(flows))%16))
	}
	b.ReportMetric(float64(n.stats.FlowsRecomputed)/float64(b.N), "flows-recomputed/op")
}

// BenchmarkChurnLifecycle exercises the registry's maintenance path:
// stop+restart of a flow per op (the session-arrival/departure shape), where
// the registry must remove and re-union membership while proving no split.
func BenchmarkChurnLifecycle(b *testing.B) {
	topo, links := rails(64, 3, 1e8)
	n := NewNetwork(topo)
	var flows []*Flow
	n.Batch(func() {
		for i := range links {
			for k := 0; k < 8; k++ {
				flows = append(flows, n.StartFlow(Path(links[i]), 1e6*float64(1+k), ""))
			}
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := i % len(flows)
		old := flows[idx]
		n.Batch(func() {
			n.StopFlow(old)
			flows[idx] = n.StartFlow(old.Path, old.Demand, "")
		})
	}
	b.StopTimer()
	b.ReportMetric(float64(n.stats.RegistryRebuilds)/float64(b.N), "rebuilds/op")
}
