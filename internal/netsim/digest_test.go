package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestStateDigestRandomOps drives two networks that share one topology
// through a seeded random op sequence covering every way digested state can
// move — including the ways no mutator of the network under test sees: a
// capacity edit made through the *other* network and nextID assigned by
// ImportState — and asserts StateDigest equals the full-recompute oracle on
// both after every single op.
func TestStateDigestRandomOps(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			topo, links := rails(3, 3, 90)
			var paths []Path
			for _, r := range links {
				paths = append(paths, Path(r), Path{r[0]}, Path{r[1], r[2]}, Path{})
			}
			nets := [2]*Network{NewNetwork(topo), NewNetwork(topo)}
			var flows [2][]*Flow // every handle ever started, detached ones included
			rng := rand.New(rand.NewSource(seed))
			value := func() float64 {
				switch rng.Intn(6) {
				case 0:
					return math.Inf(1)
				case 1:
					return 0
				}
				return float64(1 + rng.Intn(300))
			}
			var depth [2]int
			for step := 0; step < 1500; step++ {
				k := rng.Intn(2)
				n := nets[k]
				pick := func() *Flow {
					if len(flows[k]) == 0 {
						return nil // nil handles are no-ops too
					}
					return flows[k][rng.Intn(len(flows[k]))]
				}
				var last func() // the op, kept so it can be repeated as a no-op
				switch op := rng.Intn(11); op {
				case 0, 1:
					p, d, tag := paths[rng.Intn(len(paths))], value(), []string{"", "cdnX", "a-tag-longer-than-one-word"}[rng.Intn(3)]
					flows[k] = append(flows[k], n.StartFlow(p, d, tag))
				case 2:
					f := pick()
					last = func() { n.StopFlow(f) }
				case 3, 4:
					f, d := pick(), value()
					last = func() { n.SetDemand(f, d) }
				case 5:
					f, w := pick(), float64(rng.Intn(4))
					last = func() { n.SetWeight(f, w) }
				case 6:
					f, p := pick(), paths[rng.Intn(len(paths))]
					last = func() { n.SetPath(f, p) }
				case 7:
					id, c := LinkID(rng.Intn(topo.NumLinks())), float64(50+rng.Intn(100))
					last = func() { n.SetLinkCapacity(id, c) }
				case 8:
					r := float64(1+rng.Intn(5)) * 1e8
					last = func() { n.SetMaxRate(r) }
				case 9:
					if depth[k] < 3 {
						n.BeginBatch()
						depth[k]++
					}
				case 10:
					if depth[k] > 0 {
						n.EndBatch()
						depth[k]--
					}
				}
				if last != nil {
					last()
					if rng.Intn(3) == 0 {
						last() // unchanged value / already-stopped flow: a no-op
					}
				}
				phase := fmt.Sprintf("step %d", step)
				requireDigest(t, nets[0], phase)
				requireDigest(t, nets[1], phase)
				requireRegistry(t, nets[0], phase)
				requireRegistry(t, nets[1], phase)

				if step%250 == 249 {
					// Export/import onto a third network over the same
					// topology: nextID arrives by assignment, flows by replay.
					restored := NewNetwork(topo)
					if err := restored.ImportState(n.ExportState()); err != nil {
						t.Fatalf("%s: import: %v", phase, err)
					}
					requireDigest(t, restored, phase+" imported")
					if got, want := restored.StateDigest(), n.StateDigest(); got != want {
						t.Fatalf("%s: imported digest %016x != source %016x", phase, got, want)
					}
				}
			}
			for k, n := range nets {
				for ; depth[k] > 0; depth[k]-- {
					n.EndBatch()
				}
				// A capacity edit through the other network left this one's
				// rates stale; SetMaxRate dirties and refills every component.
				n.SetMaxRate(n.maxRate / 2)
				requireOracle(t, n, "drained")
			}
		})
	}
}

// TestStateDigestIsAMultisetHash pins the two places a sum of per-flow
// fingerprints could cancel where the old ordered pass could not.
func TestStateDigestIsAMultisetHash(t *testing.T) {
	topo, p := line(100, 80)
	n := NewNetwork(topo)
	a := n.StartFlow(p, 10, "x")
	b := n.StartFlow(p, 20, "x")
	before := n.StateDigest()
	n.Batch(func() {
		n.SetDemand(a, 20)
		n.SetDemand(b, 10)
	})
	if n.StateDigest() == before {
		t.Fatal("two flows swapping demands left the digest unchanged")
	}
	requireDigest(t, n, "swapped")

	// An identical flow under a new ID is a different element. nextID is
	// pinned back so only the flow set differs between the two digests.
	before = n.StateDigest()
	next := n.nextID
	n.StopFlow(b)
	c := n.StartFlow(p, 10, "x")
	n.nextID = next
	if c.ID == b.ID {
		t.Fatal("restart reused the flow ID")
	}
	if n.StateDigest() == before {
		t.Fatal("stop-then-restart under a new ID left the digest unchanged")
	}
	requireDigest(t, n, "restarted")
}

// churnLike builds the bench/ net-churn shape at a chosen size: eight
// regions of eight access links into one aggregation link, flows spread over
// the two-hop paths.
func churnLike(flows int) (*Network, []Path, []*Flow) { return churnRegions(8, flows) }

// churnRegions is churnLike with the region count chosen too, so the flow
// count can grow while each region — one component — keeps its size.
func churnRegions(regions, flows int) (*Network, []Path, []*Flow) {
	topo := NewTopology()
	var paths []Path
	for r := 0; r < regions; r++ {
		agg, core := NodeID(fmt.Sprintf("r%d-agg", r)), NodeID(fmt.Sprintf("r%d-core", r))
		up := topo.AddLink(agg, core, 1e9, 0, "")
		for a := 0; a < 8; a++ {
			l := topo.AddLink(NodeID(fmt.Sprintf("r%d-a%d", r, a)), agg, 200e6, 0, "")
			paths = append(paths, Path{l, up})
		}
	}
	n := NewNetwork(topo)
	live := make([]*Flow, 0, flows)
	n.Batch(func() {
		for i := 0; i < flows; i++ {
			live = append(live, n.StartFlow(paths[i%len(paths)], float64(1+i%16)*0.5e6, "churn"))
		}
	})
	return n, paths, live
}

// TestDigestAndExportCost pins what the journaled write path pays per op and
// per snapshot: reading the digest allocates nothing at any flow count, and
// ExportState makes a constant number of allocations, not one per flow.
func TestDigestAndExportCost(t *testing.T) {
	n, _, _ := churnLike(1000)
	if a := testing.AllocsPerRun(200, func() { n.StateDigest() }); a != 0 {
		t.Errorf("StateDigest allocates %v allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(20, func() { n.ExportState() }); a > 8 {
		t.Errorf("ExportState allocates %v allocs/op at 1000 flows, want <= 8", a)
	}
	// The carved Links slices must not be able to grow into each other.
	st := n.ExportState()
	first, second := st.Flows[0].Links, st.Flows[1].Links
	want := second[0]
	_ = append(first, 9999)
	if second[0] != want {
		t.Fatal("appending to one FlowState.Links overwrote its neighbour")
	}
}

// TestPublishChurnAllocs pins the other half of the write path's cost: one
// flow leaving and one arriving among 1 000, each committed and published
// through a SharedNetwork, allocate what rebuilding one 125-flow component's
// chunk takes (17 allocations for the pair) and nothing that grows with the
// flow count — a per-flow index rebuilt on each publish added 12.
func TestPublishChurnAllocs(t *testing.T) {
	n, paths, live := churnLike(1000)
	s := NewShared(n, SharedConfig{})
	defer s.Close()
	i := 0
	a := testing.AllocsPerRun(200, func() {
		k := i % len(live)
		s.StopFlow(live[k])
		live[k] = s.StartFlow(paths[(i*7)%len(paths)], float64(1+i%16)*0.5e6, "churn")
		i++
	})
	if a > 20 {
		t.Errorf("StopFlow+StartFlow publish allocates %v allocs at 1000 flows, want <= 20", a)
	}
}

var digestSink uint64

// BenchmarkStateDigest reads the digest at two flow counts two orders of
// magnitude apart: the cost is O(links), so the arms must agree.
func BenchmarkStateDigest(b *testing.B) {
	for _, flows := range []int{100, 10000} {
		b.Run(fmt.Sprintf("flows=%d", flows), func(b *testing.B) {
			n, _, _ := churnLike(flows)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				digestSink += n.StateDigest()
			}
		})
	}
}

// BenchmarkJournaledWindow is bench/'s net-churn window — two flow
// replacements and a demand edit, five journaled ops and a Commit — on a
// 1 000-flow journaled SharedNetwork whose sink does nothing, snapshots at
// net-churn's cadence: allocator + publish + digest per op + export per
// snapshot, without the journal's own I/O.
func BenchmarkJournaledWindow(b *testing.B) {
	n, paths, live := churnLike(1000)
	s := NewShared(n, SharedConfig{Journal: &failAfterSink{ok: math.MaxInt}, SnapshotEvery: 32})
	defer s.Close()
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < 2; r++ {
			k := rng.Intn(len(live))
			s.StopFlow(live[k])
			live[k] = s.StartFlow(paths[rng.Intn(len(paths))], float64(1+rng.Intn(16))*0.5e6, "churn")
		}
		f := live[rng.Intn(len(live))]
		s.SetDemand(f, f.Demand+0.25e6)
		s.Commit()
	}
}
