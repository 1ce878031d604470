package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// --- Batching semantics ---------------------------------------------------

func TestBatchCoalescesReallocations(t *testing.T) {
	topo, p := line(100)
	n := NewNetwork(topo)
	before := n.stats.Reallocations
	var flows []*Flow
	n.Batch(func() {
		for i := 0; i < 10; i++ {
			flows = append(flows, n.StartFlow(p, math.Inf(1), ""))
		}
	})
	if got := n.stats.Reallocations - before; got != 1 {
		t.Errorf("batched 10 starts cost %d reallocations, want 1", got)
	}
	for _, f := range flows {
		if !almostEq(f.Rate, 10) {
			t.Errorf("flow %d rate = %v, want 10", f.ID, f.Rate)
		}
	}
}

func TestBatchNesting(t *testing.T) {
	topo, p := line(100)
	n := NewNetwork(topo)
	before := n.stats.Reallocations
	var f *Flow
	n.Batch(func() {
		n.Batch(func() {
			f = n.StartFlow(p, math.Inf(1), "")
		})
		if !n.InBatch() {
			t.Error("outer batch not open after inner EndBatch")
		}
		if n.stats.Reallocations != before {
			t.Error("inner EndBatch committed inside outer batch")
		}
		n.StartFlow(p, math.Inf(1), "")
	})
	if got := n.stats.Reallocations - before; got != 1 {
		t.Errorf("nested batches cost %d reallocations, want 1", got)
	}
	if !almostEq(f.Rate, 50) {
		t.Errorf("rate = %v, want 50", f.Rate)
	}
}

func TestBatchPanicStillCommits(t *testing.T) {
	topo, p := line(100)
	n := NewNetwork(topo)
	var f *Flow
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate out of Batch")
			}
		}()
		n.Batch(func() {
			f = n.StartFlow(p, math.Inf(1), "")
			panic("scenario bug")
		})
	}()
	if n.InBatch() {
		t.Error("batch still open after panic unwind")
	}
	if !almostEq(f.Rate, 100) {
		t.Errorf("rate after panic unwind = %v, want 100 (pending batch must commit)", f.Rate)
	}
}

func TestEndBatchWithoutBegin(t *testing.T) {
	n := NewNetwork(NewTopology())
	defer func() {
		if recover() == nil {
			t.Error("unbalanced EndBatch did not panic")
		}
	}()
	n.EndBatch()
}

func TestBatchEmptyCommitsNothing(t *testing.T) {
	topo, _ := line(100)
	n := NewNetwork(topo)
	before := n.stats.Reallocations
	n.Batch(func() {})
	if n.stats.Reallocations != before {
		t.Errorf("empty batch triggered %d reallocations", n.stats.Reallocations-before)
	}
}

// --- Detached-flow regression (satellite bugfix) --------------------------

func TestMutationsOnStoppedFlowAreNoOps(t *testing.T) {
	topo, p := line(100)
	n := NewNetwork(topo)
	dead := n.StartFlow(p, math.Inf(1), "")
	live := n.StartFlow(p, math.Inf(1), "")
	n.StopFlow(dead)
	if !almostEq(live.Rate, 100) {
		t.Fatalf("live rate = %v, want 100", live.Rate)
	}
	before := n.stats.Reallocations

	n.SetDemand(dead, 1)
	n.SetWeight(dead, 7)
	n.SetPath(dead, p)
	n.StopFlow(dead) // double stop, already a documented no-op

	if n.stats.Reallocations != before {
		t.Errorf("mutating a stopped flow triggered %d reallocations", n.stats.Reallocations-before)
	}
	if dead.Demand != math.Inf(1) || dead.Weight != 0 {
		// SetDemand/SetWeight return before writing, so the dead flow
		// object keeps the values it died with.
		t.Errorf("detached flow mutated: demand=%v weight=%v", dead.Demand, dead.Weight)
	}
	if dead.Rate != 0 {
		t.Errorf("detached flow rate = %v, want 0", dead.Rate)
	}
	if !almostEq(live.Rate, 100) {
		t.Errorf("live rate disturbed to %v by dead-flow mutations", live.Rate)
	}
}

func TestMutationsOnNilFlowAreNoOps(t *testing.T) {
	topo, p := line(100)
	n := NewNetwork(topo)
	n.SetDemand(nil, 5)
	n.SetWeight(nil, 2)
	n.SetPath(nil, p)
	n.StopFlow(nil)
	if n.stats.Reallocations != 0 {
		t.Errorf("nil-flow mutations triggered %d reallocations", n.stats.Reallocations)
	}
}

// --- Incremental recomputation --------------------------------------------

// rails builds r disjoint chains of l links each, returning the link matrix.
// Flows on different rails are always in different components.
func rails(r, l int, capacity float64) (*Topology, [][]*Link) {
	topo := NewTopology()
	links := make([][]*Link, r)
	for i := 0; i < r; i++ {
		for j := 0; j < l; j++ {
			from := NodeID(rune('A'+i)) + NodeID(rune('a'+j))
			to := NodeID(rune('A'+i)) + NodeID(rune('a'+j+1))
			links[i] = append(links[i], topo.AddLink(from, to, capacity, time.Millisecond, ""))
		}
	}
	return topo, links
}

func TestIncrementalLeavesOtherComponentsUntouched(t *testing.T) {
	topo, links := rails(3, 2, 90)
	n := NewNetwork(topo)
	var flows [][]*Flow
	n.Batch(func() {
		for i := range links {
			var fs []*Flow
			for k := 0; k < 3; k++ {
				fs = append(fs, n.StartFlow(Path{links[i][0], links[i][1]}, math.Inf(1), ""))
			}
			flows = append(flows, fs)
		}
	})
	// Snapshot the exact bits of rails 1 and 2.
	var before []float64
	for _, f := range append(flows[1], flows[2]...) {
		before = append(before, f.Rate)
	}
	incBefore := n.stats.IncrementalReallocations
	// Churn rail 0 only.
	n.SetDemand(flows[0][0], 5)
	n.StopFlow(flows[0][1])
	n.StartFlow(Path{links[0][0]}, 20, "")
	if n.stats.IncrementalReallocations-incBefore != 3 {
		t.Errorf("expected 3 incremental reallocations, got %d", n.stats.IncrementalReallocations-incBefore)
	}
	var after []float64
	for _, f := range append(flows[1], flows[2]...) {
		after = append(after, f.Rate)
	}
	for i := range before {
		if before[i] != after[i] {
			t.Errorf("untouched component rate changed: %v -> %v", before[i], after[i])
		}
	}
}

func TestEmptyPathFlowIncremental(t *testing.T) {
	topo, _ := line(100)
	n := NewNetwork(topo)
	f := n.StartFlow(Path{}, math.Inf(1), "local")
	if !almostEq(f.Rate, n.maxRate) {
		t.Fatalf("local flow rate = %v, want MaxRate %v", f.Rate, n.maxRate)
	}
	n.SetDemand(f, 42)
	if !almostEq(f.Rate, 42) {
		t.Errorf("local flow rate after SetDemand = %v, want 42", f.Rate)
	}
}

func TestStopLastFlowClearsLinkRate(t *testing.T) {
	topo, p := line(100)
	n := NewNetwork(topo)
	f := n.StartFlow(p, 60, "")
	if !almostEq(n.LinkRate(p[0].ID), 60) {
		t.Fatalf("link rate = %v, want 60", n.LinkRate(p[0].ID))
	}
	n.StopFlow(f)
	if n.LinkRate(p[0].ID) != 0 {
		t.Errorf("link rate after last flow stopped = %v, want 0", n.LinkRate(p[0].ID))
	}
}

func TestSetMaxRateReallocates(t *testing.T) {
	topo, _ := line(1e9)
	n := NewNetwork(topo)
	f := n.StartFlow(Path{}, math.Inf(1), "")
	n.SetMaxRate(5e6)
	if !almostEq(f.Rate, 5e6) {
		t.Errorf("rate after SetMaxRate = %v, want 5e6", f.Rate)
	}
}

// --- Differential test: batched/incremental ≡ full ------------------------

// mutOp is one recorded mutation, replayable against any mirror network.
type mutOp struct {
	kind   int // 0 start, 1 stop, 2 demand, 3 weight, 4 path, 5 linkcap
	flow   int // index into the mirror's flow list
	rail   int
	lo, hi int // sub-range of the rail for paths
	val    float64
}

func (op mutOp) apply(n *Network, links [][]*Link, flows *[]*Flow) {
	path := func() Path {
		var p Path
		for _, l := range links[op.rail][op.lo:op.hi] {
			p = append(p, l)
		}
		return p
	}
	switch op.kind {
	case 0:
		*flows = append(*flows, n.StartFlow(path(), op.val, "t"))
	case 1:
		n.StopFlow((*flows)[op.flow])
	case 2:
		n.SetDemand((*flows)[op.flow], op.val)
	case 3:
		n.SetWeight((*flows)[op.flow], op.val)
	case 4:
		n.SetPath((*flows)[op.flow], path())
	case 5:
		n.SetLinkCapacity(links[op.rail][op.lo].ID, op.val)
	}
}

// TestDifferentialIncrementalVsFull drives three mirror networks over
// randomized topologies with randomized mutation sequences:
//
//   - inc: reallocating incrementally per mutation
//   - bat: the same mutations grouped into random-size batches
//   - full: per mutation, then a SetMaxRate that dirties and refills every
//     component, stale ones included
//
// and asserts, at every batch boundary, that each agrees with the oracle
// (oracle_test.go) on every flow rate and every link rate — exactly, bit for
// bit. This is the equivalence invariant of DESIGN.md §"One allocator
// path": a component's fill is a deterministic function of its own flows and
// links, so recomputing a subset of components can never drift from a
// from-scratch pass — and the registry only changes how components are found,
// never their contents (registry.go invariants).
func TestDifferentialIncrementalVsFull(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		nRails := 2 + rng.Intn(4)
		nLinks := 2 + rng.Intn(4)

		build := func() (*Network, [][]*Link) {
			topo := NewTopology()
			links := make([][]*Link, nRails)
			for i := 0; i < nRails; i++ {
				for j := 0; j < nLinks; j++ {
					from := NodeID(rune('A'+i)) + NodeID(rune('a'+j))
					to := NodeID(rune('A'+i)) + NodeID(rune('a'+j+1))
					// Deterministic per-position capacity so all
					// three topologies are identical.
					cap := 1e6 * float64(10+(trial*7+i*3+j)%90)
					links[i] = append(links[i], topo.AddLink(from, to, cap, time.Millisecond, ""))
				}
			}
			return NewNetwork(topo), links
		}
		inc, incLinks := build()
		bat, batLinks := build()
		full, fullLinks := build()

		var incFlows, batFlows, fullFlows []*Flow

		randOp := func() mutOp {
			op := mutOp{kind: rng.Intn(6), rail: rng.Intn(nRails), val: float64(rng.Intn(100)) * 1e5}
			op.lo = rng.Intn(nLinks)
			op.hi = op.lo + 1 + rng.Intn(nLinks-op.lo)
			if len(incFlows) > 0 {
				op.flow = rng.Intn(len(incFlows))
			} else {
				op.kind = 0
			}
			switch op.kind {
			case 0:
				if rng.Intn(4) == 0 {
					op.val = math.Inf(1) // greedy flow
				}
				if rng.Intn(8) == 0 {
					op.hi = op.lo // empty path
				}
			case 3:
				op.val = float64(1 + rng.Intn(4))
			case 5:
				op.val = 1e6 * float64(1+rng.Intn(100))
				op.hi = op.lo + 1
			}
			return op
		}

		for step := 0; step < 40; step++ {
			batchLen := 1 + rng.Intn(5)
			ops := make([]mutOp, batchLen)
			for i := range ops {
				// Ops are generated before any of them apply, so
				// flow indices refer to the pre-batch flow list —
				// identical across all three mirrors.
				ops[i] = randOp()
			}
			for _, op := range ops {
				op.apply(inc, incLinks, &incFlows)
			}
			bat.Batch(func() {
				for _, op := range ops {
					op.apply(bat, batLinks, &batFlows)
				}
			})
			for _, op := range ops {
				op.apply(full, fullLinks, &fullFlows)
			}
			// Alternate the bound so every SetMaxRate changes it; 1e7 binds
			// greedy flows on the roomier links, DefaultMaxRate binds none.
			if step%2 == 0 {
				full.SetMaxRate(1e7)
			} else {
				full.SetMaxRate(DefaultMaxRate)
			}

			if len(batFlows) != len(incFlows) || len(fullFlows) != len(incFlows) {
				t.Fatalf("trial %d step %d: mirror flow counts diverged", trial, step)
			}
			at := fmt.Sprintf("trial %d step %d", trial, step)
			requireOracle(t, inc, at+" incremental")
			requireOracle(t, bat, at+" batched")
			requireOracle(t, full, at+" full")
		}
	}
}

// --- The E1 flash-crowd setup path ----------------------------------------

// e1SetupTopology mirrors the E1 flash-crowd scenario: a shared 60 Mbps
// access link fronting two well-provisioned CDN paths.
func e1SetupTopology() (*Network, Path, Path) {
	topo := NewTopology()
	access := topo.AddLink("clients", "border", 60e6, 2*time.Millisecond, "access")
	linkB := topo.AddLink("border", "cdn1", 1e9, time.Millisecond, "peering-1")
	linkC := topo.AddLink("border", "ixp", 1e9, 3*time.Millisecond, "peering-2")
	ixp := topo.AddLink("ixp", "cdn2", 1e9, time.Millisecond, "ixp-cdn2")
	n := NewNetwork(topo)
	return n, Path{access, linkB}, Path{access, linkC, ixp}
}

// TestBatchedSetupReallocationSavings pins the acceptance criterion:
// building the flash-crowd peak flow set under Batch costs ≥ 5× fewer
// reallocations than the unbatched mutation-at-a-time path.
func TestBatchedSetupReallocationSavings(t *testing.T) {
	const sessions = 200
	setup := func(n *Network, p1, p2 Path) {
		for i := 0; i < sessions; i++ {
			p := p1
			if i%2 == 1 {
				p = p2
			}
			f := n.StartFlow(p, 0, "session")
			n.SetDemand(f, math.Inf(1))
		}
	}

	plain, p1, p2 := e1SetupTopology()
	setup(plain, p1, p2)

	batched, q1, q2 := e1SetupTopology()
	batched.Batch(func() { setup(batched, q1, q2) })

	if batched.stats.Reallocations != 1 {
		t.Errorf("batched setup cost %d reallocations, want 1", batched.stats.Reallocations)
	}
	if plain.stats.Reallocations < 5*batched.stats.Reallocations {
		t.Errorf("unbatched %d vs batched %d reallocations: want ≥ 5× savings",
			plain.stats.Reallocations, batched.stats.Reallocations)
	}
	// Both end in the same allocation.
	if plain.LinkRate(0) != batched.LinkRate(0) {
		t.Errorf("access link rate differs: %v vs %v", plain.LinkRate(0), batched.LinkRate(0))
	}
}

// --- Benchmarks -----------------------------------------------------------

// BenchmarkReallocateBatched measures the E1 flash-crowd setup path: the
// cost of establishing the peak concurrent flow set, unbatched vs batched.
// The batched arm performs one reallocation per setup; the unbatched arm
// performs one per mutation (2×sessions). The realloc ratio is reported as
// a metric.
func BenchmarkReallocateBatched(b *testing.B) {
	const sessions = 200
	setup := func(n *Network, p1, p2 Path) {
		for i := 0; i < sessions; i++ {
			p := p1
			if i%2 == 1 {
				p = p2
			}
			f := n.StartFlow(p, 0, "session")
			n.SetDemand(f, math.Inf(1))
		}
	}
	var plainReallocs, batchedReallocs uint64
	b.Run("unbatched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n, p1, p2 := e1SetupTopology()
			setup(n, p1, p2)
			plainReallocs = n.stats.Reallocations
		}
	})
	b.Run("batched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n, p1, p2 := e1SetupTopology()
			n.Batch(func() { setup(n, p1, p2) })
			batchedReallocs = n.stats.Reallocations
		}
	})
	if batchedReallocs > 0 {
		b.ReportMetric(float64(plainReallocs)/float64(batchedReallocs), "realloc-ratio")
	}
}

// BenchmarkReallocateIncremental measures single-mutation cost on a
// many-component network (64 rails × 3 links, 8 flows per rail): a commit
// touches one component of 8 flows.
func BenchmarkReallocateIncremental(b *testing.B) {
	build := func() (*Network, [][]*Link, []*Flow) {
		topo, links := rails(64, 3, 1e8)
		n := NewNetwork(topo)
		var flows []*Flow
		n.Batch(func() {
			for i := range links {
				for k := 0; k < 8; k++ {
					p := Path{links[i][0], links[i][1], links[i][2]}
					flows = append(flows, n.StartFlow(p, 1e6*float64(1+k), ""))
				}
			}
		})
		return n, links, flows
	}
	// The demand must actually change on every visit to a flow (SetDemand
	// no-ops on an unchanged value); i/len(flows) advances once per sweep.
	b.Run("incremental", func(b *testing.B) {
		n, _, flows := build()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n.SetDemand(flows[i%len(flows)], 1e6*float64(1+(i+i/len(flows))%16))
		}
	})
}
