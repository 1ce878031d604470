package netsim

import (
	"math"
	"testing"
	"time"
)

func TestSetLinkCapacityReallocates(t *testing.T) {
	topo, p := line(100)
	n := NewNetwork(topo)
	f := n.StartFlow(p, math.Inf(1), "")
	if !almostEq(f.Rate, 100) {
		t.Fatalf("rate = %v", f.Rate)
	}
	// Degradation: capacity halves, the flow follows immediately.
	n.SetLinkCapacity(p[0].ID, 50)
	if !almostEq(f.Rate, 50) {
		t.Errorf("rate after degradation = %v, want 50", f.Rate)
	}
	// Upgrade: capacity grows, the flow recovers.
	n.SetLinkCapacity(p[0].ID, 200)
	if !almostEq(f.Rate, 200) {
		t.Errorf("rate after upgrade = %v, want 200", f.Rate)
	}
	if !almostEq(n.Utilization(p[0].ID), 1) {
		t.Errorf("utilization = %v, want 1", n.Utilization(p[0].ID))
	}
}

func TestSetLinkCapacityNoopOnSameValue(t *testing.T) {
	topo, p := line(100)
	n := NewNetwork(topo)
	n.StartFlow(p, 10, "")
	before := n.stats.Reallocations
	n.SetLinkCapacity(p[0].ID, 100)
	if n.stats.Reallocations != before {
		t.Error("same-capacity set triggered a reallocation")
	}
}

func TestSetLinkCapacityValidation(t *testing.T) {
	topo, p := line(100)
	n := NewNetwork(topo)
	for i, fn := range []func(){
		func() { n.SetLinkCapacity(LinkID(99), 10) },
		func() { n.SetLinkCapacity(p[0].ID, 0) },
		func() { n.SetLinkCapacity(p[0].ID, -5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestCapacityDropPreservesMaxMin(t *testing.T) {
	// After a capacity change the allocation must still satisfy the
	// max-min invariants (shared with the property test's checks).
	topo := NewTopology()
	l1 := topo.AddLink("a", "b", 100, time.Millisecond, "")
	l2 := topo.AddLink("b", "c", 100, time.Millisecond, "")
	n := NewNetwork(topo)
	fAB := n.StartFlow(Path{l1}, math.Inf(1), "")
	fABC := n.StartFlow(Path{l1, l2}, math.Inf(1), "")
	fBC := n.StartFlow(Path{l2}, math.Inf(1), "")
	n.SetLinkCapacity(l2.ID, 20)
	// l2 (cap 20) splits between fABC and fBC; fAB takes the rest of l1.
	if !almostEq(fABC.Rate, 10) || !almostEq(fBC.Rate, 10) {
		t.Errorf("l2 flows = %v, %v, want 10 each", fABC.Rate, fBC.Rate)
	}
	if !almostEq(fAB.Rate, 90) {
		t.Errorf("fAB = %v, want 90", fAB.Rate)
	}
}
