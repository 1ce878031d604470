package netsim

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// --- Flow-index recycling under stop/restart storms -------------------------

// TestFlowIndexRecyclingStorms drives stop/restart storms that fully drain
// and refill the arena freelist, interleaved with the mutations that split
// and re-merge registry components, on every differential topology fixture.
// After the first storm the arena must never grow again — every restart
// recycles indices — and the rates must stay bit-identical to the oracle
// throughout.
func TestFlowIndexRecyclingStorms(t *testing.T) {
	var rebuilds uint64
	for name, build := range diffFixtures() {
		build := build
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			n, paths := build()
			var flows []*Flow
			stormSize := 3 * len(paths)
			var arenaCap int
			for round := 0; round < 4; round++ {
				// Start storm: grows the arena in round 0, must run entirely
				// off the freelist afterwards.
				for k := 0; k < stormSize; k++ {
					d := float64(1 + rng.Intn(200))
					if rng.Intn(4) == 0 {
						d = math.Inf(1)
					}
					flows = append(flows, n.StartFlow(paths[rng.Intn(len(paths))], d, ""))
					requireDigest(t, n, "start storm")
				}
				requireOracle(t, n, "start storm")
				if round == 0 {
					arenaCap = len(n.arFlow)
				} else if got := len(n.arFlow); got != arenaCap {
					t.Fatalf("round %d: arena grew to %d slots, want it capped at %d (freelist not recycled)",
						round, got, arenaCap)
				}

				// Split-inducing interleave: stop a random half (bridge flows
				// among them force re-splits) with demand churn in between.
				live := len(flows)
				for k := 0; k < live/2; k++ {
					n.StopFlow(flows[rng.Intn(live)])
					if k%3 == 0 {
						n.SetDemand(flows[rng.Intn(live)], float64(1+rng.Intn(99)))
					}
					requireOracle(t, n, "half stop")
				}

				// Stop everything: the freelist must absorb the whole arena.
				for _, f := range flows {
					n.StopFlow(f) // stopping an already-stopped flow is a no-op
					requireDigest(t, n, "stop all")
				}
				if n.NumFlows() != 0 {
					t.Fatalf("round %d: %d flows live after stop-all", round, n.NumFlows())
				}
				if got := len(n.arFree); got != len(n.arFlow) {
					t.Fatalf("round %d: freelist holds %d of %d arena slots after stop-all",
						round, got, len(n.arFlow))
				}
				requireOracle(t, n, "stop all")
				for _, f := range flows {
					if f.Rate != 0 {
						t.Fatalf("round %d: stopped flow %d still reads rate %v", round, f.ID, f.Rate)
					}
				}
				flows = flows[:0]
			}
			rebuilds += n.stats.RegistryRebuilds
		})
	}
	if rebuilds == 0 {
		t.Error("storms never triggered a registry re-split across any fixture")
	}
}

// TestFreelistExhaustionGrowth pins the freelist hand-off point: restarts up
// to the high-water mark recycle indices; going past it grows the arena by
// exactly the overflow.
func TestFreelistExhaustionGrowth(t *testing.T) {
	topo, links := rails(4, 3, 1e8)
	n := NewNetwork(topo)
	var flows []*Flow
	for i := range links {
		for k := 0; k < 4; k++ {
			flows = append(flows, n.StartFlow(Path(links[i]), 10, ""))
		}
	}
	high := len(n.arFlow)
	if high != len(flows) {
		t.Fatalf("arena has %d slots for %d flows", high, len(flows))
	}
	for _, f := range flows {
		n.StopFlow(f)
	}
	if len(n.arFree) != high {
		t.Fatalf("freelist holds %d slots, want %d", len(n.arFree), high)
	}
	// Restart exactly to the high-water mark: all recycled, no growth.
	flows = flows[:0]
	for i := 0; i < high; i++ {
		flows = append(flows, n.StartFlow(Path(links[i%len(links)]), 10, ""))
	}
	if len(n.arFlow) != high || len(n.arFree) != 0 {
		t.Fatalf("after refill: arena %d slots (want %d), freelist %d (want 0)",
			len(n.arFlow), high, len(n.arFree))
	}
	// One past: the arena must grow by exactly one slot.
	flows = append(flows, n.StartFlow(Path(links[0]), 10, ""))
	if len(n.arFlow) != high+1 {
		t.Fatalf("arena has %d slots after overflow, want %d", len(n.arFlow), high+1)
	}
	// Every index is dense and unique.
	seen := make(map[int32]bool)
	for _, f := range flows {
		if f.idx < 0 || int(f.idx) >= len(n.arFlow) || seen[f.idx] {
			t.Fatalf("flow %d has invalid or duplicate arena index %d", f.ID, f.idx)
		}
		seen[f.idx] = true
	}
}

// --- Zero-allocation steady states ------------------------------------------

// TestSteadyStateAllocs pins the allocation-free steady states the SoA
// refactor bought: demand churn in both component-size regimes (many small
// rails; one hub component holding ~70% of the flows) and idle snapshot reads
// through a SharedNetwork. Regressions here are silent GC pressure in every
// simulation tick, so they fail loudly.
func TestSteadyStateAllocs(t *testing.T) {
	churn := func(setup func() (*Network, []*Flow)) func(*testing.T) {
		return func(t *testing.T) {
			n, flows := setup()
			i := 0
			op := func() {
				n.SetDemand(flows[i%len(flows)], 1e6*float64(1+(i+i/len(flows))%16))
				i++
			}
			for warm := 0; warm < 2*len(flows); warm++ {
				op() // grow scratch to steady state
			}
			if a := testing.AllocsPerRun(500, op); a != 0 {
				t.Errorf("demand churn allocates %v allocs/op in steady state, want 0", a)
			}
		}
	}
	t.Run("churn-rails", churn(func() (*Network, []*Flow) { return setupRails(16, 3, 8) }))
	t.Run("churn-skewed", churn(func() (*Network, []*Flow) { return setupSkewed(140, 20) }))

	t.Run("idle-snapshot-reads", func(t *testing.T) {
		topo, links := rails(4, 3, 1e8)
		n := NewNetwork(topo)
		var paths []Path
		n.Batch(func() {
			for i := range links {
				p := Path(links[i])
				paths = append(paths, p)
				for k := 0; k < 4; k++ {
					n.StartFlow(p, 1e6*float64(1+k), "")
				}
			}
		})
		s := NewShared(n, SharedConfig{})
		defer s.Close()
		i := 0
		read := func() {
			sn := s.Snapshot()
			id := LinkID(i % topo.NumLinks())
			_ = sn.Utilization(id)
			_ = sn.Congestion(id)
			_ = sn.Headroom(id)
			for _, l := range paths[i%len(paths)] {
				_ = sn.QueueDelay(l.ID)
			}
			_, _ = sn.Flow(FlowID(i % 16))
			i++
		}
		if a := testing.AllocsPerRun(500, read); a != 0 {
			t.Errorf("idle snapshot reads allocate %v allocs/op, want 0", a)
		}
	})
}

// TestStormsUnderRegistrySplitsShared reruns a compressed storm through a
// SharedNetwork in deterministic mode, so freelist recycling also meets the
// pooled command path and delta snapshot publication. The published snapshot
// must agree with a serial replay of the same ops.
func TestStormsUnderRegistrySplitsShared(t *testing.T) {
	topo := NewTopology()
	a := topo.AddLink("A", "B", 100, time.Millisecond, "")
	b := topo.AddLink("B", "C", 200, time.Millisecond, "")
	paths := []Path{{a}, {b}, {a, b}}

	n := NewNetwork(topo)
	s := NewShared(n, SharedConfig{Journal: &oracleSink{t: t, net: n}})
	defer s.Close()
	mirror := NewNetwork(topo)

	rng := rand.New(rand.NewSource(7))
	var sFlows, mFlows []*Flow
	for round := 0; round < 50; round++ {
		pi := rng.Intn(len(paths))
		d := float64(1 + rng.Intn(150))
		sFlows = append(sFlows, s.StartFlow(paths[pi], d, ""))
		mFlows = append(mFlows, mirror.StartFlow(paths[pi], d, ""))
		if round%3 == 2 { // stop the bridge-most recent third, forcing splits
			fi := rng.Intn(len(sFlows))
			s.StopFlow(sFlows[fi])
			mirror.StopFlow(mFlows[fi])
		}
		requireOracle(t, mirror, "serial mirror")
		sn := s.Snapshot()
		for i, mf := range mFlows {
			v, ok := sn.Flow(sFlows[i].ID)
			if mirror.attached(mf) != ok {
				t.Fatalf("round %d: flow %d liveness diverged (shared %v, serial %v)", round, i, ok, mirror.attached(mf))
			}
			if ok && v.Rate != mf.Rate {
				t.Fatalf("round %d: flow %d rate %v != serial %v", round, i, v.Rate, mf.Rate)
			}
		}
		for id := 0; id < topo.NumLinks(); id++ {
			if sn.LinkRate(LinkID(id)) != mirror.LinkRate(LinkID(id)) {
				t.Fatalf("round %d: link %d rate %v != serial %v", round, id,
					sn.LinkRate(LinkID(id)), mirror.LinkRate(LinkID(id)))
			}
		}
	}
}

// TestFillScratchGrowsGeometrically pins the fill scratch's growth: one
// component that gains a flow at a time, 1 to 256 flows on one link,
// reallocates the rate/frozen scratch at most 10 times, not at every new
// maximum.
func TestFillScratchGrowsGeometrically(t *testing.T) {
	topo, p := line(100)
	n := NewNetwork(topo)
	reallocs, last := 0, 0
	for k := 1; k <= 256; k++ {
		n.StartFlow(p, float64(k), "")
		if c := cap(n.scratchRate); c != last {
			reallocs, last = reallocs+1, c
		}
		if len(n.scratchFrozen) < k {
			t.Fatalf("%d flows: frozen scratch holds %d", k, len(n.scratchFrozen))
		}
	}
	if reallocs > 10 {
		t.Errorf("fill scratch reallocated %d times growing to 256 flows, want ≤ 10", reallocs)
	}
}
