package netsim

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestWeightedSharing(t *testing.T) {
	topo, p := line(90)
	n := NewNetwork(topo)
	heavy := n.StartFlow(p, math.Inf(1), "")
	n.SetWeight(heavy, 2)
	light := n.StartFlow(p, math.Inf(1), "")
	if !almostEq(heavy.Rate, 60) || !almostEq(light.Rate, 30) {
		t.Errorf("rates = %v, %v, want 60/30 (2:1 split)", heavy.Rate, light.Rate)
	}
}

func TestWeightedDemandCapStillBinds(t *testing.T) {
	topo, p := line(90)
	n := NewNetwork(topo)
	heavy := n.StartFlow(p, 20, "") // demand-limited despite weight
	n.SetWeight(heavy, 10)
	light := n.StartFlow(p, math.Inf(1), "")
	if !almostEq(heavy.Rate, 20) {
		t.Errorf("heavy rate = %v, want demand 20", heavy.Rate)
	}
	if !almostEq(light.Rate, 70) {
		t.Errorf("light rate = %v, want leftover 70", light.Rate)
	}
}

func TestWeightedMultiBottleneck(t *testing.T) {
	// Weighted version of the classic two-bottleneck case.
	topo := NewTopology()
	l1 := topo.AddLink("a", "b", 30, time.Millisecond, "l1")
	l2 := topo.AddLink("b", "c", 100, time.Millisecond, "l2")
	n := NewNetwork(topo)
	fA := n.StartFlow(Path{l1}, math.Inf(1), "")
	n.SetWeight(fA, 2)
	fB := n.StartFlow(Path{l1, l2}, math.Inf(1), "")
	fC := n.StartFlow(Path{l2}, math.Inf(1), "")
	// l1: weights 2+1 → fA 20, fB 10; l2: fC takes the rest (90).
	if !almostEq(fA.Rate, 20) || !almostEq(fB.Rate, 10) {
		t.Errorf("l1 split = %v/%v, want 20/10", fA.Rate, fB.Rate)
	}
	if !almostEq(fC.Rate, 90) {
		t.Errorf("fC = %v, want 90", fC.Rate)
	}
}

func TestSetWeightReallocates(t *testing.T) {
	topo, p := line(90)
	n := NewNetwork(topo)
	f1 := n.StartFlow(p, math.Inf(1), "")
	f2 := n.StartFlow(p, math.Inf(1), "")
	if !almostEq(f1.Rate, 45) {
		t.Fatalf("pre rate = %v", f1.Rate)
	}
	before := n.stats.Reallocations
	n.SetWeight(f1, 1) // 0→1 is a change of the stored field
	_ = before
	n.SetWeight(f2, 8)
	if !almostEq(f1.Rate, 10) || !almostEq(f2.Rate, 80) {
		t.Errorf("rates = %v/%v, want 10/80", f1.Rate, f2.Rate)
	}
	r := n.stats.Reallocations
	n.SetWeight(f2, 8) // no-op
	if n.stats.Reallocations != r {
		t.Error("same-weight set triggered a reallocation")
	}
}

func TestZeroWeightTreatedAsOne(t *testing.T) {
	topo, p := line(90)
	n := NewNetwork(topo)
	f1 := n.StartFlow(p, math.Inf(1), "")
	f2 := n.StartFlow(p, math.Inf(1), "")
	if !almostEq(f1.Rate, f2.Rate) {
		t.Errorf("default weights unequal: %v vs %v", f1.Rate, f2.Rate)
	}
}

// Property: weighted allocation conserves capacity and splits saturated
// links in weight proportion among greedy flows.
func TestQuickWeightedProportions(t *testing.T) {
	f := func(w1Raw, w2Raw uint8) bool {
		w1 := float64(w1Raw%8) + 1
		w2 := float64(w2Raw%8) + 1
		topo, p := line(100)
		n := NewNetwork(topo)
		f1 := n.StartFlow(p, math.Inf(1), "")
		f2 := n.StartFlow(p, math.Inf(1), "")
		n.SetWeight(f1, w1)
		n.SetWeight(f2, w2)
		total := f1.Rate + f2.Rate
		if math.Abs(total-100) > 1e-6 {
			return false
		}
		return math.Abs(f1.Rate/f2.Rate-w1/w2) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
