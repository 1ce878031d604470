package netsim

import (
	"testing"
	"time"
)

func TestAddNodeAndLink(t *testing.T) {
	topo := NewTopology()
	topo.AddNode("x")
	l := topo.AddLink("a", "b", 100, 5*time.Millisecond, "ab")
	if !topo.HasNode("a") || !topo.HasNode("b") || !topo.HasNode("x") {
		t.Error("nodes missing after AddLink/AddNode")
	}
	if topo.Link(l.ID) != l {
		t.Error("Link lookup failed")
	}
	if topo.Link(LinkID(99)) != nil || topo.Link(LinkID(-1)) != nil {
		t.Error("out-of-range Link lookup should return nil")
	}
	if topo.NumLinks() != 1 {
		t.Errorf("NumLinks = %d", topo.NumLinks())
	}
}

func TestNodesSorted(t *testing.T) {
	topo := NewTopology()
	topo.AddNode("c")
	topo.AddNode("a")
	topo.AddNode("b")
	ids := topo.Nodes()
	if len(ids) != 3 || ids[0] != "a" || ids[1] != "b" || ids[2] != "c" {
		t.Errorf("Nodes() = %v", ids)
	}
}

func TestAddLinkValidation(t *testing.T) {
	topo := NewTopology()
	for _, tc := range []struct {
		cap   float64
		delay time.Duration
	}{{0, 0}, {-5, 0}, {10, -time.Second}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddLink(cap=%v, delay=%v) did not panic", tc.cap, tc.delay)
				}
			}()
			topo.AddLink("a", "b", tc.cap, tc.delay, "")
		}()
	}
}

func TestPathValid(t *testing.T) {
	topo := NewTopology()
	ab := topo.AddLink("a", "b", 1, 0, "")
	bc := topo.AddLink("b", "c", 1, 0, "")
	cd := topo.AddLink("c", "d", 1, 0, "")
	if !(Path{ab, bc, cd}).Valid("a", "d") {
		t.Error("connected path reported invalid")
	}
	if (Path{ab, cd}).Valid("", "") {
		t.Error("disconnected path reported valid")
	}
	if (Path{ab}).Valid("b", "") {
		t.Error("wrong source accepted")
	}
	if (Path{ab}).Valid("", "c") {
		t.Error("wrong destination accepted")
	}
	if !(Path{}).Valid("a", "a") {
		t.Error("empty path with equal endpoints rejected")
	}
	if (Path{}).Valid("a", "b") {
		t.Error("empty path with distinct endpoints accepted")
	}
}

func TestPathMetricsAndString(t *testing.T) {
	topo := NewTopology()
	ab := topo.AddLink("a", "b", 10, 2*time.Millisecond, "")
	bc := topo.AddLink("b", "c", 5, 3*time.Millisecond, "")
	p := Path{ab, bc}
	if p.PropDelay() != 5*time.Millisecond {
		t.Errorf("PropDelay = %v", p.PropDelay())
	}
	if p.String() != "a->b->c" {
		t.Errorf("String = %q", p.String())
	}
	if (Path{}).String() != "(local)" {
		t.Errorf("empty String = %q", (Path{}).String())
	}
}

func TestShortestPath(t *testing.T) {
	topo := NewTopology()
	topo.AddLink("a", "b", 1, 10*time.Millisecond, "")
	topo.AddLink("b", "d", 1, 10*time.Millisecond, "")
	topo.AddLink("a", "c", 1, 5*time.Millisecond, "")
	topo.AddLink("c", "d", 1, 5*time.Millisecond, "")
	p, err := topo.ShortestPath("a", "d")
	if err != nil {
		t.Fatal(err)
	}
	if p.PropDelay() != 10*time.Millisecond || p[0].To != "c" {
		t.Errorf("shortest path = %v (%v)", p, p.PropDelay())
	}
}

func TestShortestPathSameNode(t *testing.T) {
	topo := NewTopology()
	topo.AddNode("a")
	p, err := topo.ShortestPath("a", "a")
	if err != nil || len(p) != 0 {
		t.Errorf("self path = %v, %v", p, err)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	topo := NewTopology()
	topo.AddNode("a")
	topo.AddNode("z")
	if _, err := topo.ShortestPath("a", "z"); err == nil {
		t.Error("unreachable destination returned no error")
	}
	if _, err := topo.ShortestPath("a", "missing"); err == nil {
		t.Error("unknown node returned no error")
	}
}

func TestShortestPathDeterministicTieBreak(t *testing.T) {
	build := func() (*Topology, Path) {
		topo := NewTopology()
		topo.AddLink("a", "b", 1, 5*time.Millisecond, "")
		topo.AddLink("b", "d", 1, 5*time.Millisecond, "")
		topo.AddLink("a", "c", 1, 5*time.Millisecond, "")
		topo.AddLink("c", "d", 1, 5*time.Millisecond, "")
		p, _ := topo.ShortestPath("a", "d")
		return topo, p
	}
	_, p1 := build()
	_, p2 := build()
	if p1.String() != p2.String() {
		t.Errorf("tie-break not deterministic: %v vs %v", p1, p2)
	}
}
